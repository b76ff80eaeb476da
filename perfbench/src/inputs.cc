#include "inputs.h"

#include <cstring>
#include <unordered_set>

#include "graph/schema_graph.h"
#include "harness.h"
#include "metadata/term.h"
#include "text/tokenizer.h"

namespace kmb {

using km::AnswerResult;
using km::Database;
using km::net::AnswerReply;

Dataset BuildDataset(const std::string& name) {
  Dataset out;
  km::bench::EvalDb& eval = out;
  if (name == "mondial") {
    eval = km::bench::MakeMondial();
  } else if (name == "dblp") {
    eval = km::bench::MakeDblp();
  } else if (name == "imdb") {
    eval = km::bench::MakeImdb();
  } else {
    Die("unknown dataset " + name);
  }
  const double t0 = NowMs();
  out.state = km::PreparedState::Build(*out.db, km::PrepareOptions{});
  out.prepare_ms = NowMs() - t0;
  if (out.state == nullptr) Die(name + ": PreparedState::Build returned null");
  return out;
}

std::shared_ptr<const km::KeymanticEngine> NewEngine(
    const Database& db, std::shared_ptr<const km::PreparedState> state) {
  auto engine = km::KeymanticEngine::FromPreparedState(db, std::move(state));
  if (!engine.ok()) Die("FromPreparedState: " + engine.status().ToString());
  return std::shared_ptr<const km::KeymanticEngine>(std::move(*engine));
}

namespace {

bool Valid(const std::string& text, const km::TokenizerOptions& options) {
  return km::ValidateQueryText(text).ok() && !km::Tokenize(text, options).empty();
}

}  // namespace

std::vector<Query> TemplateQueries(const Dataset& dataset, size_t index,
                                   size_t per_template, uint64_t seed) {
  // The generator's gold interpretations come from a unit-weight graph.
  km::Terminology terminology(dataset.db->schema());
  km::SchemaGraph unit_graph(terminology, dataset.db->schema());
  const std::vector<km::WorkloadQuery> generated =
      km::bench::MakeWorkload(dataset, terminology, unit_graph, per_template, seed);
  std::vector<Query> out;
  std::unordered_set<std::string> seen;
  for (const km::WorkloadQuery& q : generated) {
    std::string text;
    for (const std::string& kw : q.keywords) {
      if (!text.empty()) text += ' ';
      // Quoted, a multi-word keyword survives tokenization intact.
      text += kw.find(' ') == std::string::npos ? kw : '"' + kw + '"';
    }
    if (!Valid(text, dataset.state->tokenizer_options())) continue;
    if (!seen.insert(text).second) continue;
    out.push_back({index, std::move(text), q.gold_sql_signature});
  }
  return out;
}

bool GoldInTop5(const Query& query, const AnswerReply& reply) {
  for (size_t r = 0; r < reply.answers.size() && r < 5; ++r) {
    if (reply.answers[r].sql == query.gold_sql) return true;
  }
  return false;
}

AnswerReply ToReply(const AnswerResult& result) {
  AnswerReply reply;
  reply.quality = static_cast<uint8_t>(result.quality);
  for (const km::Explanation& e : result.explanations) {
    reply.answers.push_back({e.score, e.sql.CanonicalSignature()});
  }
  return reply;
}

bool SameReply(const AnswerReply& a, const AnswerReply& b) {
  if (a.quality != b.quality || a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].sql != b.answers[i].sql ||
        std::memcmp(&a.answers[i].score, &b.answers[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t DigestReply(uint64_t h, const AnswerReply& reply) {
  h = Fnv1a(h, &reply.quality, 1);
  for (const km::net::AnswerWire& a : reply.answers) {
    h = Fnv1a(h, &a.score, sizeof(double));
    h = Fnv1a(h, a.sql.data(), a.sql.size() + 1);
  }
  return Fnv1a(h, "|", 1);
}

std::vector<AnswerReply> ReferenceAnswers(const std::vector<Dataset>& datasets,
                                          std::vector<Query>* queries,
                                          size_t* dropped) {
  std::vector<std::shared_ptr<const km::KeymanticEngine>> engines;
  for (const Dataset& d : datasets) engines.push_back(NewEngine(*d.db, d.state));
  std::vector<Query> kept;
  std::vector<AnswerReply> replies;
  *dropped = 0;
  for (Query& q : *queries) {
    auto result = engines[q.dataset]->Answer(q.text, kTopK);
    if (!result.ok() || result->explanations.empty()) {
      ++*dropped;
      continue;
    }
    replies.push_back(ToReply(*result));
    kept.push_back(std::move(q));
  }
  *queries = std::move(kept);
  return replies;
}

}  // namespace kmb
