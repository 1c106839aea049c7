#ifndef TREELATTICE_CORE_ESTIMATE_CACHE_H_
#define TREELATTICE_CORE_ESTIMATE_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metric_names.h"
#include "util/analysis_annotations.h"
#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace treelattice {

/// Cache telemetry (see obs/metric_names.h for the registry):
///   cache.hits           estimate served straight from the cache
///   cache.misses         lookups that fell through to the estimator
///   cache.evictions      LRU entries displaced by capacity pressure
///   cache.invalidations  shard clears caused by a snapshot swap
///   cache.probe_micros   (histogram) Get latency, hit or miss — shard
///                        lock wait shows up here under contention
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* invalidations;
  obs::Histogram* probe_micros;

  // One-time registration into a function-local static (see
  // EstimatorMetrics::Get).
  TL_ALLOC_OK static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return CacheMetrics{registry->counter(names::kCacheHits),
                          registry->counter(names::kCacheMisses),
                          registry->counter(names::kCacheEvictions),
                          registry->counter(names::kCacheInvalidations),
                          registry->histogram(names::kCacheProbeMicros)};
    }();
    return m;
  }
};

/// A sharded, snapshot-scoped LRU cache of primary-rung estimates, keyed
/// by canonical query code under one estimator configuration.
///
/// Scoping contract: every Get/Put carries the snapshot version the caller
/// is serving from. A shard belongs to exactly one version at a time; the
/// first access under a different version clears it, so an estimate
/// computed against snapshot N can never answer a request served from
/// snapshot M != N — a `#reload` hot-swap implicitly drops the whole cache
/// without any cross-thread coordination beyond the per-shard mutex.
///
/// Insert policy is the caller's: only cache results that are exact for
/// the configuration. BatchEstimator inserts every answer the primary rung
/// gave, under any budget (the primary completes or fails, it never
/// answers from cut-short work), and never a floor answer, which another
/// estimator computed.
///
/// A cache serves one estimator configuration: the Server builds every
/// worker's BatchEstimator from the same options. The map key is the mixed
/// 64-bit canonical-code hash; the stored code string is verified on every
/// hit, so hash collisions degrade to misses, never wrong answers.
class EstimateCache {
 public:
  /// Shards, each with its own mutex and LRU list: enough that workers
  /// rarely contend on one shard lock. A key's shard is picked by the top
  /// bits of its mixed hash.
  static constexpr size_t kShards = 8;

  /// `capacity` entries in total, split evenly over the shards (at least
  /// one per shard).
  explicit EstimateCache(size_t capacity);

  EstimateCache(const EstimateCache&) = delete;
  EstimateCache& operator=(const EstimateCache&) = delete;

  /// Cached estimate for `code` under `snapshot_version`, or nullopt.
  /// `code_hash` must equal HashBytes(code).
  TL_HOT std::optional<double> Get(int64_t snapshot_version,
                                   uint64_t code_hash, std::string_view code);

  /// Caches `estimate` for `code` under `snapshot_version` (overwriting any
  /// entry for the same code), evicting the least recently used entry of
  /// the shard when full.
  // Allocates by design: an insert copies the code string into the entry
  // (the cache must own its keys past the request's lifetime).
  TL_ALLOC_OK void Put(int64_t snapshot_version, uint64_t code_hash,
                       std::string_view code, double estimate);

  /// Live entries across all shards (test/diagnostic aid).
  size_t size() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };
  Stats GetStats() const;

 private:
  struct Entry {
    uint64_t key = 0;
    std::string code;
    double estimate = 0.0;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Snapshot version the shard's entries belong to; -1 = empty/fresh.
    int64_t version TL_GUARDED_BY(mu) = -1;
    /// MRU at the front.
    std::list<Entry> lru TL_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index
        TL_GUARDED_BY(mu);
  };

  static uint64_t KeyFor(uint64_t code_hash);
  Shard& ShardFor(uint64_t key);

  /// Clears `shard` if it belongs to a different snapshot version,
  /// claiming it for `snapshot_version`. Returns with shard.version ==
  /// snapshot_version.
  void SyncShardVersion(Shard& shard, int64_t snapshot_version)
      TL_REQUIRES(shard.mu);

  std::array<Shard, kShards> shards_;
  const size_t per_shard_capacity_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_ESTIMATE_CACHE_H_
