// Workload inputs: the databases, their prepared state, seeded query pools
// validated before any timing, and the wire form of an answer used for the
// bit-exact answer check.

#ifndef KM_PERFBENCH_INPUTS_H_
#define KM_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/keymantic.h"
#include "core/prepared_state.h"
#include "net/protocol.h"
#include "relational/database.h"

namespace kmb {

/// Answers requested per query on every path.
inline constexpr size_t kTopK = 10;

/// One database of a workload (name, database, query templates) with its
/// prepared state.
struct Dataset : km::bench::EvalDb {
  std::shared_ptr<const km::PreparedState> state;
  double prepare_ms = 0;  ///< wall time of PreparedState::Build
};

/// Builds the named database ("mondial", "dblp" or "imdb") as the
/// experiment harnesses do, and its prepared state (PreparedState::Build
/// timed into prepare_ms); dies on failure.
Dataset BuildDataset(const std::string& name);

/// A fresh engine (empty caches, default options: threads=0, as on every
/// serving path) over the dataset's prepared state; dies on failure.
std::shared_ptr<const km::KeymanticEngine> NewEngine(
    const km::Database& db, std::shared_ptr<const km::PreparedState> state);

/// One query of a pool.
struct Query {
  size_t dataset = 0;    ///< index into the workload's datasets
  std::string text;
  std::string gold_sql;  ///< the generator's gold SQL signature
};

/// The distinct texts the workload generator makes for one dataset from
/// its templates (`per_template` instances each, at `seed`), each with its
/// gold SQL signature. Duplicate texts, and texts that fail
/// ValidateQueryText or tokenize to no keyword, are dropped here, before
/// any timing.
std::vector<Query> TemplateQueries(const Dataset& dataset, size_t index,
                                   size_t per_template, uint64_t seed);

/// True when the query's gold SQL signature is among the reply's first 5.
bool GoldInTop5(const Query& query, const km::net::AnswerReply& reply);

/// The RESP payload a NetServer sends for `result`.
km::net::AnswerReply ToReply(const km::AnswerResult& result);
/// Bit-exact equality: quality, SQL signatures and score bit patterns.
bool SameReply(const km::net::AnswerReply& a, const km::net::AnswerReply& b);
/// Chains a reply into a digest.
uint64_t DigestReply(uint64_t h, const km::net::AnswerReply& reply);

/// Serial reference answers on fresh engines over the same prepared state.
/// Queries whose reference answer is an error are removed from `queries`
/// (pool validation) and counted in `*dropped`.
std::vector<km::net::AnswerReply> ReferenceAnswers(
    const std::vector<Dataset>& datasets, std::vector<Query>* queries,
    size_t* dropped);

}  // namespace kmb

#endif  // KM_PERFBENCH_INPUTS_H_
