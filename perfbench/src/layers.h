// Per-layer measurement from outside the program: replays of a workload's
// query order against the engine's public stage functions (traced with the
// benchmark's own spans), the direct untraced Answer pass those stage times
// must add up to, the serve/net probe over a loopback serving stack, the
// codec, snapshot and idle-CPU probes, and the table of per-layer metrics
// every traced run prints.

#ifndef KM_PERFBENCH_LAYERS_H_
#define KM_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/engine_server.h"
#include "serve/tenant.h"

namespace kmb {

/// A TenantRegistry (one EngineServer worker per tenant), a NetServer on
/// an ephemeral loopback port, and one connected, HELO-bound client per
/// tenant. Member order makes the clients close first and the registry
/// outlive the server.
struct WireStack {
  struct Tenant {
    std::string id;
    std::shared_ptr<const km::KeymanticEngine> engine;
  };
  /// Starts the stack; dies on failure.
  static std::unique_ptr<WireStack> Start(const std::vector<Tenant>& tenants);
  ~WireStack();

  std::vector<std::string> ids;
  km::TenantRegistry registry;
  std::unique_ptr<km::net::NetServer> server;
  std::vector<std::unique_ptr<km::net::NetClient>> clients;  ///< parallel to ids
  /// Request ids are unique per stack: NetClient drops replies to ids it
  /// has already seen answered.
  uint64_t next_request_id = 1;
};

/// A query order replayed on fresh engines, one per dataset. `warm` is
/// answered once (untimed) on each fresh engine set before the order;
/// engines are replaced every `reset_every` queries (0: never), the way a
/// snapshot reload swaps in an engine with empty caches.
struct ReplayPlan {
  const std::vector<Dataset>* datasets = nullptr;
  const std::vector<Query>* queries = nullptr;
  std::vector<size_t> order;  ///< indices into *queries
  std::vector<size_t> warm;
  size_t reset_every = 0;
};

/// Reply quality that marks an Answer error (no ResultQuality has it).
inline constexpr uint8_t kErrorQuality = 0xff;

/// The untraced direct pass: KeymanticEngine::Answer per query with a fresh
/// unlimited QueryContext, so per-query stage spend is exact; cache counter
/// figures are per-answer deltas of the engine-cumulative AnswerStats
/// snapshots (each engine answers serially, so the deltas are exact).
struct DirectPass {
  /// One whole stretch of the order (see RunDirect).
  struct Stretch {
    size_t done = 0;
    double wall_ms = 0;  ///< its query loop, engine replacements excluded
    size_t errors = 0;
  };
  std::vector<Stretch> stretches;
  Samples answer_ms;
  double wall_ms = 0;  ///< the query loop, engine replacements excluded
  size_t done = 0;
  size_t errors = 0;
  uint64_t murty = 0;  ///< stage_spend[forward]: assignment subproblems
  uint64_t dpbf = 0;   ///< stage_spend[backward]: DPBF queue pops
  uint64_t row_hits = 0, row_lookups = 0;
  uint64_t steiner_hits = 0, steiner_lookups = 0;
  /// One per done query of the first stretch (see RunDirect); an error
  /// answer is an empty reply with quality kErrorQuality.
  std::vector<km::net::AnswerReply> replies;
  /// Done queries beyond the first stretch whose answer was an error or
  /// differed from the first stretch's answer at the same position.
  std::vector<size_t> differs;
  /// Wall and process CPU milliseconds of each done query's Answer call.
  std::vector<double> query_ms, query_cpu_ms;
};

/// Runs `plan.order` until its end, or until `budget_ms` has passed (0: no
/// limit). The order is cut into stretches of `whole` queries (0: one
/// stretch), each timed on its own; the budget is checked only between
/// stretches, so at least one runs and every stretch runs entirely. Later
/// stretches repeat the first: their answers are checked against it and
/// not kept, so memory does not grow with the number of stretches.
/// `between`, if given, runs before every stretch but the first, with the
/// engines released, outside the timings and the budget; fresh engines
/// follow it.
DirectPass RunDirect(const ReplayPlan& plan, double budget_ms, size_t whole = 0,
                     const std::function<void()>& between = nullptr);

/// Counts every direct answer as an operation and checks it bit-exactly
/// against `refs` (indexed like *plan.queries).
void CheckDirect(const ReplayPlan& plan, const DirectPass& direct,
                 const std::vector<km::net::AnswerReply>& refs, Report* report);

/// Every per-layer metric, in one place.
struct LayerFigures {
  double net_ask_ms_p50 = 0, net_ask_ms_mean = 0, net_self_ms_p50 = 0;
  double codec_us_per_query = 0, reply_bytes_mean = 0, idle_cpu_ms_per_s = 0;
  double submit_ms_p50 = 0, submit_ms_mean = 0, serve_self_ms_p50 = 0;
  double probe_answer_ms_mean = 0;  ///< the serve/net probe's direct Answer
  uint64_t shed = 0, expired = 0, max_queue_depth = 0;
  double load_ms_p50 = 0, load_rss_mb = 0, snapshot_bytes = 0;
  double from_prepared_ms_p50 = 0, prepare_ms = 0;
  double answer_ms_p50 = 0, answer_ms_mean = 0, translate_ms_mean = 0,
         other_ms_mean = 0, steiner_hit_ratio = 0;
  double tokenize_us_mean = 0, weights_ms_mean = 0, row_hit_ratio = 0;
  double forward_ms_mean = 0, murty_per_query = 0;
  double backward_ms_mean = 0, dpbf_per_query = 0;
  double residual_ms = 0, overhead_pct = 0;
};

/// Replays the direct pass's queries through the public stage calls:
/// Tokenize, the weights build (on a shadow engine whose row cache sees the
/// same keys, so the main engine's caches evolve exactly as under Answer),
/// Configurations (weights + forward), Interpretations per configuration
/// and Translate per candidate, each under a span in `log`. A second engine
/// set replays the same calls without spans in lockstep, so host drift hits
/// both alike and their gap is the tracing overhead. Fills the core, text,
/// metadata, matching and graph figures.
void EngineFigures(const ReplayPlan& plan, const DirectPass& direct,
                   SpanLog* log, LayerFigures* out);

/// The closed-loop serve/net probe: for each query, the engine's direct
/// Answer, EngineServer::Submit().get() and NetClient::Ask are timed on the
/// same warm query (each query is answered once first), all three replies
/// are checked bit-exactly against `refs`, then the stack sits idle for a
/// second with its connections open. Also runs the codec probe on the
/// recorded payloads.
void ServeNetProbe(WireStack* stack, const std::vector<Query>& queries,
                   const std::vector<km::net::AnswerReply>& refs,
                   size_t limit, SpanLog* log, Report* report,
                   LayerFigures* out);

/// Save, then repeatedly LoadSnapshot and FromPreparedState, per dataset;
/// figures are sums over the datasets of per-dataset medians.
void SnapshotProbe(const std::vector<Dataset>& datasets,
                   const std::string& out_dir, SpanLog* log, LayerFigures* out);

/// EngineServer::ReloadSnapshot of each dataset's state (saved to a
/// snapshot file), 31 times on an idle server; the sum over the datasets of
/// the per-dataset medians. Each reload is an operation; one that does not
/// swap fails.
double ReloadProbe(const std::vector<Dataset>& datasets, const std::string& out_dir,
                   Report* report);

/// Adds EngineServer::Stats() of `after` minus `before` (max depth: max).
void AddServerStats(const km::ServerStats& before, const km::ServerStats& after,
                    LayerFigures* out);

/// Prints the layer figures as the per-layer metrics.
void EmitLayerMetrics(const LayerFigures& f, Report* report);

}  // namespace kmb

#endif  // KM_PERFBENCH_LAYERS_H_
