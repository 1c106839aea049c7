#include "mining/lattice_builder.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "match/matcher.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "twig/twig.h"
#include "util/timer.h"

namespace treelattice {

namespace {

/// Mining telemetry: how many candidates were enumerated, how many the
/// Apriori check discarded before counting, how many patterns survived,
/// and per-level build latency.
struct MiningMetrics {
  obs::Counter* candidates_generated;
  obs::Counter* candidates_pruned_apriori;
  obs::Counter* candidates_counted;
  obs::Counter* patterns_inserted;
  obs::Histogram* level_build_micros;

  static MiningMetrics& Get() {
    static MiningMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return MiningMetrics{
          registry->counter(names::kMiningCandidatesGenerated),
          registry->counter(names::kMiningCandidatesPrunedApriori),
          registry->counter(names::kMiningCandidatesCounted),
          registry->counter(names::kMiningPatternsInserted),
          registry->histogram(names::kMiningLevelBuildMicros)};
    }();
    return m;
  }
};

/// Map from parent label to the distinct child labels observed beneath it
/// in the document. Candidate twigs only ever attach edges from this set,
/// which prunes the candidate space to label pairs that can match at all.
std::unordered_map<LabelId, std::vector<LabelId>> CollectEdgeLabels(
    const Document& doc) {
  std::unordered_map<LabelId, std::unordered_set<LabelId>> sets;
  for (NodeId n = 1; n < static_cast<NodeId>(doc.NumNodes()); ++n) {
    sets[doc.Label(doc.Parent(n))].insert(doc.Label(n));
  }
  std::unordered_map<LabelId, std::vector<LabelId>> out;
  out.reserve(sets.size());
  for (auto& [parent, children] : sets) {
    std::vector<LabelId> labels(children.begin(), children.end());
    std::sort(labels.begin(), labels.end());
    out.emplace(parent, std::move(labels));
  }
  return out;
}

/// True if every sub-twig of `candidate` obtained by removing one degree-1
/// node is a known occurring pattern of the previous level.
bool PassesApriori(const Twig& candidate,
                   const std::unordered_set<std::string>& previous_level) {
  for (int node : candidate.RemovableNodes()) {
    Result<Twig> sub = candidate.RemoveNode(node);
    if (!sub.ok()) continue;
    if (previous_level.find(sub->CanonicalCode()) == previous_level.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<LatticeSummary> BuildLattice(const Document& doc,
                                    const LatticeBuildOptions& options,
                                    LatticeBuildStats* stats) {
  if (options.max_level < 2) {
    return Status::InvalidArgument("BuildLattice: max_level must be >= 2");
  }
  obs::TraceSpan build_span("mining.build", "mining");
  build_span.SetArg("max_level", static_cast<uint64_t>(options.max_level));
  WallTimer timer;
  LatticeSummary summary(options.max_level);
  LatticeBuildStats local_stats;
  local_stats.patterns_per_level.assign(
      static_cast<size_t>(options.max_level) + 1, 0);

  if (doc.empty()) {
    summary.set_complete_through_level(options.max_level);
    if (stats) {
      local_stats.build_seconds = timer.ElapsedSeconds();
      *stats = local_stats;
    }
    return summary;
  }

  MatchCounter counter(doc);
  auto edge_labels = CollectEdgeLabels(doc);

  // Level 1: one pattern per occurring label (spanning the label index,
  // which covers labels even when they bypassed the dictionary).
  std::vector<Twig> current;
  for (LabelId label = 0;
       label < static_cast<LabelId>(counter.label_index().NumLabels());
       ++label) {
    size_t occurrences = counter.label_index().Count(label);
    if (occurrences == 0) continue;
    Twig t;
    t.AddNode(label, -1);
    TL_RETURN_IF_ERROR(summary.Insert(t, occurrences));
    current.push_back(std::move(t));
  }
  local_stats.patterns_per_level[1] = current.size();
  MiningMetrics::Get().patterns_inserted->Increment(current.size());

  const int num_threads = std::max(1, options.num_threads);
  int complete_level = 1;
  for (int level = 2; level <= options.max_level; ++level) {
    obs::TraceSpan level_span("mining.level", "mining");
    level_span.SetArg("level", static_cast<uint64_t>(level));
    WallTimer level_timer;
    std::unordered_set<std::string> previous_codes;
    previous_codes.reserve(current.size());
    for (const Twig& t : current) previous_codes.insert(t.CanonicalCode());

    // Phase 1: generate the deduplicated candidate set for this level.
    std::unordered_set<std::string> seen;
    std::vector<Twig> candidates;
    for (const Twig& pattern : current) {
      for (int node = 0; node < pattern.size(); ++node) {
        auto it = edge_labels.find(pattern.label(node));
        if (it == edge_labels.end()) continue;
        for (LabelId child_label : it->second) {
          Twig candidate = pattern;  // small copy; patterns are tiny
          candidate.AddNode(child_label, node);
          ++local_stats.candidates_generated;
          MiningMetrics::Get().candidates_generated->Increment();
          std::string code = candidate.CanonicalCode();
          if (!seen.insert(code).second) continue;
          if (options.apriori_prune && level >= 3 &&
              !PassesApriori(candidate, previous_codes)) {
            MiningMetrics::Get().candidates_pruned_apriori->Increment();
            continue;
          }
          candidates.push_back(std::move(candidate));
        }
      }
    }
    local_stats.candidates_counted += candidates.size();
    MiningMetrics::Get().candidates_counted->Increment(candidates.size());

    // Phase 2: count the candidates — embarrassingly parallel, since
    // MatchCounter::Count only reads the document and label index.
    std::vector<uint64_t> counts(candidates.size(), 0);
    if (num_threads <= 1 || candidates.size() < 2) {
      for (size_t i = 0; i < candidates.size(); ++i) {
        counts[i] = counter.Count(candidates[i]);
      }
    } else {
      std::atomic<size_t> next_index{0};
      auto worker = [&]() {
        for (;;) {
          size_t i = next_index.fetch_add(1, std::memory_order_relaxed);
          if (i >= candidates.size()) return;
          counts[i] = counter.Count(candidates[i]);
        }
      };
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(num_threads));
      for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker);
      for (std::thread& t : threads) t.join();
    }

    // Phase 3: insert the survivors in generation order.
    std::vector<Twig> next;
    bool truncated = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] == 0) continue;
      if (options.max_patterns_per_level != 0 &&
          next.size() >= options.max_patterns_per_level) {
        truncated = true;
        break;
      }
      TL_RETURN_IF_ERROR(summary.Insert(candidates[i], counts[i]));
      next.push_back(std::move(candidates[i]));
    }
    local_stats.patterns_per_level[static_cast<size_t>(level)] = next.size();
    MiningMetrics::Get().patterns_inserted->Increment(next.size());
    MiningMetrics::Get().level_build_micros->Record(
        static_cast<uint64_t>(level_timer.ElapsedMicros()));
    current = std::move(next);
    if (truncated) break;
    complete_level = level;
    if (current.empty()) {
      complete_level = options.max_level;  // nothing larger can occur
      break;
    }
  }

  summary.set_complete_through_level(complete_level);
  local_stats.build_seconds = timer.ElapsedSeconds();
  if (stats) *stats = local_stats;
  return summary;
}

}  // namespace treelattice
