#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/query_context.h"
#include "net/protocol.h"
#include "snapshot/snapshot.h"
#include "text/tokenizer.h"

namespace kmb {

using km::KeymanticEngine;
using km::net::AnswerReply;

std::unique_ptr<WireStack> WireStack::Start(const std::vector<Tenant>& tenants) {
  auto stack = std::make_unique<WireStack>();
  for (const Tenant& t : tenants) {
    km::TenantOptions opts;
    opts.server.workers = 1;
    km::Status st = stack->registry.AddTenant(t.id, t.engine, opts);
    if (!st.ok()) Die("AddTenant " + t.id + ": " + st.ToString());
    stack->ids.push_back(t.id);
  }
  km::net::NetServerOptions net_opts;
  net_opts.port = 0;
  stack->server = std::make_unique<km::net::NetServer>(stack->registry, net_opts);
  km::Status st = stack->server->Start();
  if (!st.ok()) Die("NetServer::Start: " + st.ToString());
  for (const std::string& id : stack->ids) {
    auto client = km::net::NetClient::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) Die("NetClient::Connect: " + client.status().ToString());
    st = (*client)->Hello(id);
    if (!st.ok()) Die("Hello " + id + ": " + st.ToString());
    stack->clients.push_back(std::move(*client));
  }
  return stack;
}

WireStack::~WireStack() {
  for (auto& client : clients) client->Close();
  clients.clear();
  if (server != nullptr) server->Shutdown();
  registry.Shutdown();
}

namespace {

/// One engine per dataset plus the cache counters last seen on it.
struct EngineSlot {
  std::shared_ptr<const KeymanticEngine> engine;
  km::CacheCounters row, steiner;
};

bool NextFrame(km::net::FrameDecoder* decoder, km::net::Frame* frame) {
  km::StatusOr<bool> got = decoder->Next(frame);
  return got.ok() && *got;
}

/// A snapshot file in `out_dir` that no other run writes: runs of one code
/// version share the directory.
std::string SnapshotPath(const std::string& out_dir, const std::string& use,
                         const std::string& dataset) {
  return out_dir + "/" + use + "-" + dataset + "-" + std::to_string(getpid()) + ".snap";
}

std::vector<EngineSlot> FreshEngines(const ReplayPlan& plan) {
  std::vector<EngineSlot> slots;
  for (const Dataset& d : *plan.datasets) slots.push_back({NewEngine(*d.db, d.state), {}, {}});
  for (size_t qi : plan.warm) {
    const Query& q = (*plan.queries)[qi];
    EngineSlot& slot = slots[q.dataset];
    auto r = slot.engine->Answer(q.text, kTopK);
    if (r.ok()) {
      slot.row = r->stats.keyword_row_cache;
      slot.steiner = r->stats.steiner_cache;
    }
  }
  return slots;
}

}  // namespace

DirectPass RunDirect(const ReplayPlan& plan, double budget_ms, size_t whole,
                     const std::function<void()>& between) {
  DirectPass out;
  const size_t stretch = whole > 0 ? whole : std::max<size_t>(1, plan.order.size());
  std::vector<EngineSlot> slots = FreshEngines(plan);
  double start = NowMs();
  for (size_t i = 0; i < plan.order.size(); ++i) {
    if (i % stretch == 0) {
      if (i > 0 && budget_ms > 0 && NowMs() - start >= budget_ms) break;
      if (i > 0 && between) {
        const double paused = NowMs();
        slots.clear();
        between();
        slots = FreshEngines(plan);
        start += NowMs() - paused;
      }
      out.stretches.emplace_back();
    }
    DirectPass::Stretch& current = out.stretches.back();
    if (plan.reset_every > 0 && i > 0 && i % plan.reset_every == 0) {
      slots = FreshEngines(plan);
    }
    const double loop_start = NowMs();
    const Query& q = (*plan.queries)[plan.order[i]];
    EngineSlot& slot = slots[q.dataset];
    km::QueryContext ctx;
    const double cpu0 = ProcessCpuMs();
    const double t0 = NowMs();
    auto result = slot.engine->Answer(q.text, kTopK, &ctx);
    const double answer_ms = NowMs() - t0;
    out.query_cpu_ms.push_back(ProcessCpuMs() - cpu0);
    out.query_ms.push_back(answer_ms);
    out.answer_ms.Add(answer_ms);
    AnswerReply reply;
    if (result.ok()) {
      const km::AnswerStats& s = result->stats;
      out.murty += s.stage_spend[static_cast<size_t>(km::QueryStage::kForward)];
      out.dpbf += s.stage_spend[static_cast<size_t>(km::QueryStage::kBackward)];
      out.row_hits += s.keyword_row_cache.hits - slot.row.hits;
      out.row_lookups += s.keyword_row_cache.hits + s.keyword_row_cache.misses -
                         slot.row.hits - slot.row.misses;
      out.steiner_hits += s.steiner_cache.hits - slot.steiner.hits;
      out.steiner_lookups += s.steiner_cache.hits + s.steiner_cache.misses -
                             slot.steiner.hits - slot.steiner.misses;
      slot.row = s.keyword_row_cache;
      slot.steiner = s.steiner_cache;
      reply = ToReply(*result);
    } else {
      ++out.errors;
      ++current.errors;
      reply.quality = kErrorQuality;
    }
    if (i < stretch) {
      out.replies.push_back(std::move(reply));
    } else if (reply.quality == kErrorQuality || !SameReply(reply, out.replies[i % stretch])) {
      out.differs.push_back(i);
    }
    ++out.done;
    ++current.done;
    const double loop_ms = NowMs() - loop_start;
    out.wall_ms += loop_ms;
    current.wall_ms += loop_ms;
  }
  return out;
}

void CheckDirect(const ReplayPlan& plan, const DirectPass& direct,
                 const std::vector<AnswerReply>& refs, Report* report) {
  for (size_t i = 0; i < direct.done; ++i) {
    const size_t qi = plan.order[i];
    const bool ok = SameReply(direct.replies[i], refs[qi]);
    report->Operation(ok);
    if (!ok) report->Mismatch("direct answer differs on \"" + (*plan.queries)[qi].text + "\"");
  }
}

namespace {

/// One engine set of the stage replay: engines whose caches evolve as under
/// Answer, shadows for the weights build, and where its spans go.
struct StageSet {
  std::vector<EngineSlot> main, shadow;
  SpanLog* log = nullptr;
  double wall_ms = 0;
};

/// Replays query `i` through the stage calls on `set`. The shadow weights
/// build runs before the main engine's calls or after them: whichever runs
/// first finds the shared prepared state colder in the CPU caches.
void ReplayOne(const Query& q, uint64_t i, bool shadow_first, StageSet* set) {
  const double start = NowMs();
  const KeymanticEngine& engine = *set->main[q.dataset].engine;
  SpanLog* log = set->log;
  ScopedSpan root(log, "query", -1, i);
  std::vector<std::string> keywords;
  {
    ScopedSpan span(log, "text.tokenize", root.id(), i);
    keywords = km::Tokenize(q.text, engine.tokenizer_options());
  }
  auto weights = [&] {
    ScopedSpan span(log, "metadata.weights", root.id(), i);
    (void)set->shadow[q.dataset].engine->weight_builder().Build(keywords);
  };
  if (shadow_first) weights();
  km::StatusOr<std::vector<km::Configuration>> configs = km::Status::NotFound("not run");
  {
    ScopedSpan span(log, "matching.configurations", root.id(), i);
    configs = engine.Configurations(keywords, engine.options().config_k);
  }
  if (configs.ok()) {
    std::vector<std::pair<size_t, km::Interpretation>> candidates;
    for (size_t ci = 0; ci < configs->size(); ++ci) {
      ScopedSpan span(log, "graph.interpretations", root.id(), i);
      auto interps =
          engine.Interpretations((*configs)[ci], engine.options().interp_per_config);
      if (!interps.ok()) continue;
      for (km::Interpretation& it : *interps) candidates.emplace_back(ci, std::move(it));
    }
    for (const auto& [ci, interp] : candidates) {
      ScopedSpan span(log, "core.translate", root.id(), i);
      (void)engine.Translate(keywords, (*configs)[ci], interp);
    }
  }
  if (!shadow_first) weights();
  set->wall_ms += NowMs() - start;
}

/// Wall time of the stage replay without and with spans.
struct StageWalls {
  double untraced_ms = 0;
  double traced_ms = 0;
};

StageWalls RunStages(const ReplayPlan& plan, size_t count, SpanLog* log) {
  StageSet untraced, traced;
  traced.log = log;
  for (size_t i = 0; i < count && i < plan.order.size(); ++i) {
    if (i == 0 || (plan.reset_every > 0 && i % plan.reset_every == 0)) {
      for (StageSet* set : {&untraced, &traced}) {
        set->main = FreshEngines(plan);
        set->shadow = FreshEngines(plan);
      }
    }
    const Query& q = (*plan.queries)[plan.order[i]];
    // Alternate which set goes first, and the shadow's place, so neither
    // set nor stage is always the one that warms the CPU caches.
    const bool traced_first = (i / 2) % 2 == 0;
    const bool shadow_first = i % 2 == 0;
    ReplayOne(q, i, shadow_first, traced_first ? &traced : &untraced);
    ReplayOne(q, i, shadow_first, traced_first ? &untraced : &traced);
  }
  return {untraced.wall_ms, traced.wall_ms};
}

}  // namespace

void EngineFigures(const ReplayPlan& plan, const DirectPass& direct,
                   SpanLog* log, LayerFigures* out) {
  const StageWalls walls = RunStages(plan, direct.done, log);
  const double n = static_cast<double>(std::max<size_t>(direct.done, 1));
  out->answer_ms_p50 = direct.answer_ms.Median();
  out->answer_ms_mean = direct.answer_ms.Mean();
  out->murty_per_query = static_cast<double>(direct.murty) / n;
  out->dpbf_per_query = static_cast<double>(direct.dpbf) / n;
  out->row_hit_ratio = direct.row_lookups == 0
                           ? 0.0
                           : static_cast<double>(direct.row_hits) /
                                 static_cast<double>(direct.row_lookups);
  out->steiner_hit_ratio = direct.steiner_lookups == 0
                               ? 0.0
                               : static_cast<double>(direct.steiner_hits) /
                                     static_cast<double>(direct.steiner_lookups);
  const double tokenize_ms = log->PerRequestSums("query", "text.tokenize").Mean();
  out->tokenize_us_mean = tokenize_ms * 1e3;
  out->weights_ms_mean = log->PerRequestSums("query", "metadata.weights").Mean();
  out->forward_ms_mean =
      log->PerRequestSums("query", "matching.configurations").Mean() -
      out->weights_ms_mean;
  out->backward_ms_mean = log->PerRequestSums("query", "graph.interpretations").Mean();
  out->translate_ms_mean = log->PerRequestSums("query", "core.translate").Mean();
  out->other_ms_mean = out->answer_ms_mean -
                       (tokenize_ms + out->weights_ms_mean + out->forward_ms_mean +
                        out->backward_ms_mean + out->translate_ms_mean);
  out->overhead_pct = walls.untraced_ms > 0
                          ? 100.0 * (walls.traced_ms / walls.untraced_ms - 1.0)
                          : 0.0;
}

void ServeNetProbe(WireStack* stack, const std::vector<Query>& queries,
                   const std::vector<AnswerReply>& refs, size_t limit,
                   SpanLog* log, Report* report, LayerFigures* out) {
  Samples answer_ms, submit_ms, ask_ms, reply_bytes;
  std::vector<std::pair<km::net::QueryRequest, AnswerReply>> payloads;
  const size_t n = std::min(limit, queries.size());
  for (size_t i = 0; i < n; ++i) {
    const Query& q = queries[i];
    std::shared_ptr<km::EngineServer> server =
        stack->registry.Server(stack->ids[q.dataset]);
    std::shared_ptr<const KeymanticEngine> engine = server->CurrentEngine();
    (void)engine->Answer(q.text, kTopK);  // warm: all three calls hit caches
    const uint64_t rid = stack->next_request_id++;
    ScopedSpan root(log, "probe", -1, rid);
    double t0 = NowMs();
    auto direct = [&] {
      ScopedSpan span(log, "core.answer", root.id(), rid);
      return engine->Answer(q.text, kTopK);
    }();
    answer_ms.Add(NowMs() - t0);
    t0 = NowMs();
    auto submitted = [&] {
      ScopedSpan span(log, "serve.submit", root.id(), rid);
      return server->Submit(q.text, kTopK).get();
    }();
    submit_ms.Add(NowMs() - t0);
    t0 = NowMs();
    auto asked = [&] {
      ScopedSpan span(log, "net.ask", root.id(), rid);
      return stack->clients[q.dataset]->Ask(rid, q.text, kTopK, 0);
    }();
    ask_ms.Add(NowMs() - t0);
    const std::pair<const char*, km::StatusOr<AnswerReply>> replies[] = {
        {"Answer", direct.ok() ? km::StatusOr<AnswerReply>(ToReply(*direct))
                               : km::StatusOr<AnswerReply>(direct.status())},
        {"Submit", submitted.ok() ? km::StatusOr<AnswerReply>(ToReply(*submitted))
                                  : km::StatusOr<AnswerReply>(submitted.status())},
        {"Ask", asked}};
    for (const auto& [path, reply] : replies) {
      const bool same = reply.ok() && SameReply(*reply, refs[i]);
      report->Operation(same);
      if (reply.ok() && !same) {
        report->Mismatch(std::string(path) + " reply differs on \"" + q.text + "\"");
      }
    }
    if (asked.ok()) {
      km::net::QueryRequest request;
      request.k = kTopK;
      request.text = q.text;
      reply_bytes.Add(static_cast<double>(
          km::net::EncodeFrame(km::net::MakeFrame(
                                   "RESP", rid, km::net::EncodeAnswerReply(*asked)))
              .size()));
      payloads.emplace_back(std::move(request), std::move(*asked));
    }
  }
  out->net_ask_ms_p50 = ask_ms.Median();
  out->net_ask_ms_mean = ask_ms.Mean();
  out->submit_ms_p50 = submit_ms.Median();
  out->submit_ms_mean = submit_ms.Mean();
  out->net_self_ms_p50 = out->net_ask_ms_p50 - out->submit_ms_p50;
  out->serve_self_ms_p50 = out->submit_ms_p50 - answer_ms.Median();
  out->probe_answer_ms_mean = answer_ms.Mean();
  out->reply_bytes_mean = reply_bytes.Mean();

  // Codec: both directions' frame and payload codecs on the recorded
  // payloads, repeated for at least 200 ms.
  size_t chains = 0;
  const double codec_start = NowMs();
  while (!payloads.empty() && NowMs() - codec_start < 200) {
    for (const auto& [request, reply] : payloads) {
      const std::string qw = km::net::EncodeFrame(
          km::net::MakeFrame("QURY", 1, km::net::EncodeQueryRequest(request)));
      const std::string rw = km::net::EncodeFrame(
          km::net::MakeFrame("RESP", 1, km::net::EncodeAnswerReply(reply)));
      km::net::FrameDecoder decoder;
      km::net::Frame qf, rf;
      const bool framed = decoder.Feed(qw.data(), qw.size()).ok() &&
                          decoder.Feed(rw.data(), rw.size()).ok() &&
                          NextFrame(&decoder, &qf) && NextFrame(&decoder, &rf);
      auto dq = km::net::DecodeQueryRequest(qf.payload);
      auto dr = km::net::DecodeAnswerReply(rf.payload);
      if (!framed || !dq.ok() || !dr.ok() || dq->text != request.text ||
          !SameReply(*dr, reply)) {
        report->Mismatch("codec round trip differs on \"" + request.text + "\"");
        return;
      }
      ++chains;
    }
  }
  out->codec_us_per_query =
      chains == 0 ? 0.0 : (NowMs() - codec_start) * 1e3 / static_cast<double>(chains);

  const double cpu0 = ProcessCpuMs();
  const double idle0 = NowMs();
  SleepMs(1000);
  out->idle_cpu_ms_per_s = (ProcessCpuMs() - cpu0) / ((NowMs() - idle0) / 1e3);
}

void SnapshotProbe(const std::vector<Dataset>& datasets,
                   const std::string& out_dir, SpanLog* log, LayerFigures* out) {
  for (const Dataset& d : datasets) {
    const std::string path = SnapshotPath(out_dir, "probe", d.name);
    km::Status st = km::SaveSnapshot(*d.state, path);
    if (!st.ok()) Die("SaveSnapshot " + path + ": " + st.ToString());
    out->snapshot_bytes += static_cast<double>(std::filesystem::file_size(path));
    Samples load_ms, from_ms;
    for (int i = 0; i < 5; ++i) {
      const double held0 = HeldMb();
      double t0 = NowMs();
      auto state = [&] {
        ScopedSpan span(log, "snapshot.load", -1, static_cast<uint64_t>(i));
        return km::LoadSnapshot(path);
      }();
      load_ms.Add(NowMs() - t0);
      if (!state.ok()) Die("LoadSnapshot " + path + ": " + state.status().ToString());
      if (i == 0) out->load_rss_mb += HeldMb() - held0;
      t0 = NowMs();
      auto engine = [&] {
        ScopedSpan span(log, "core.from_prepared", -1, static_cast<uint64_t>(i));
        return KeymanticEngine::FromPreparedState(*d.db, *state);
      }();
      from_ms.Add(NowMs() - t0);
      if (!engine.ok()) Die("FromPreparedState: " + engine.status().ToString());
    }
    out->load_ms_p50 += load_ms.Median();
    out->from_prepared_ms_p50 += from_ms.Median();
    std::filesystem::remove(path);
  }
}

double ReloadProbe(const std::vector<Dataset>& datasets, const std::string& out_dir,
                   Report* report) {
  double total_ms = 0;
  for (const Dataset& d : datasets) {
    const std::string path = SnapshotPath(out_dir, "reload", d.name);
    const km::Status saved = km::SaveSnapshot(*d.state, path);
    if (!saved.ok()) Die("SaveSnapshot " + path + ": " + saved.ToString());
    km::EngineServerOptions opts;
    opts.workers = 1;
    km::EngineServer server(NewEngine(*d.db, d.state), opts);
    Samples reload_ms;
    // Each reload comes from its own short-lived thread, as a control-plane
    // request would. One long-lived reloader thread gave medians that moved
    // with the one vCPU it stayed on (spread 25-33% over five seeds).
    for (int i = 0; i < 31; ++i) {
      std::thread reloader([&] {
        km::ReloadReport rr;
        const double t0 = NowMs();
        const km::Status st = server.ReloadSnapshot(path, false, &rr);
        reload_ms.Add(NowMs() - t0);
        report->Operation(st.ok() && rr.rung == km::ReloadRung::kSwapped);
      });
      reloader.join();
    }
    total_ms += reload_ms.Median();
    std::filesystem::remove(path);
  }
  return total_ms;
}

void AddServerStats(const km::ServerStats& before, const km::ServerStats& after,
                    LayerFigures* out) {
  out->shed += after.shed - before.shed;
  out->expired += after.expired_in_queue - before.expired_in_queue;
  out->max_queue_depth = std::max<uint64_t>(out->max_queue_depth, after.max_queue_depth);
}

void EmitLayerMetrics(const LayerFigures& f, Report* r) {
  r->Metric("net.ask_ms_p50", f.net_ask_ms_p50, "ms");
  r->Metric("net.self_ms_p50", f.net_self_ms_p50, "ms");
  r->Metric("net.codec_us_per_query", f.codec_us_per_query, "us");
  r->Metric("net.reply_bytes_mean", f.reply_bytes_mean, "bytes");
  r->Metric("net.idle_cpu_ms_per_s", f.idle_cpu_ms_per_s, "ms/s");
  r->Metric("serve.submit_ms_p50", f.submit_ms_p50, "ms");
  r->Metric("serve.self_ms_p50", f.serve_self_ms_p50, "ms");
  r->Metric("serve.shed", static_cast<double>(f.shed), "count");
  r->Metric("serve.expired", static_cast<double>(f.expired), "count");
  r->Metric("serve.max_queue_depth", static_cast<double>(f.max_queue_depth), "count");
  r->Metric("snapshot.load_ms_p50", f.load_ms_p50, "ms");
  r->Metric("snapshot.load_rss_mb", f.load_rss_mb, "MB");
  r->Metric("snapshot.bytes", f.snapshot_bytes, "bytes");
  r->Metric("core.from_prepared_ms_p50", f.from_prepared_ms_p50, "ms");
  r->Metric("core.prepare_ms", f.prepare_ms, "ms");
  r->Metric("core.answer_ms_p50", f.answer_ms_p50, "ms");
  r->Metric("core.answer_ms_mean", f.answer_ms_mean, "ms");
  r->Metric("core.translate_ms_mean", f.translate_ms_mean, "ms");
  r->Metric("core.other_ms_mean", f.other_ms_mean, "ms");
  r->Metric("core.steiner_cache_hit_ratio", f.steiner_hit_ratio, "ratio");
  r->Metric("text.tokenize_us_mean", f.tokenize_us_mean, "us");
  r->Metric("metadata.weights_ms_mean", f.weights_ms_mean, "ms");
  r->Metric("metadata.row_cache_hit_ratio", f.row_hit_ratio, "ratio");
  r->Metric("matching.forward_ms_mean", f.forward_ms_mean, "ms");
  r->Metric("matching.murty_subproblems_per_query", f.murty_per_query, "count");
  r->Metric("graph.backward_ms_mean", f.backward_ms_mean, "ms");
  r->Metric("graph.dpbf_pops_per_query", f.dpbf_per_query, "count");
  r->Metric("trace.residual_ms", f.residual_ms, "ms");
  r->Metric("trace.overhead_pct", f.overhead_pct, "%");
}

}  // namespace kmb
