#include "core/estimate_cache.h"

#include <algorithm>
#include <chrono>

#include "util/hash.h"

namespace treelattice {

namespace {

/// Records cache.probe_micros on every exit path of Get.
class ProbeTimer {
 public:
  ProbeTimer(bool timed, std::chrono::steady_clock::time_point start)
      : timed_(timed), start_(start) {}
  ~ProbeTimer() {
    if (!timed_) return;
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    CacheMetrics::Get().probe_micros->Record(
        static_cast<uint64_t>(micros.count()));
  }

 private:
  const bool timed_;
  const std::chrono::steady_clock::time_point start_;
};

}  // namespace

EstimateCache::EstimateCache(size_t capacity)
    : per_shard_capacity_(std::max<size_t>(1, capacity / kShards)) {}

uint64_t EstimateCache::KeyFor(uint64_t code_hash) {
  return Mix64(code_hash);
}

EstimateCache::Shard& EstimateCache::ShardFor(uint64_t key) {
  // The index within a shard uses the key directly (unordered_map mixes
  // it again); shard selection uses the high bits so the two do not
  // correlate.
  static_assert((kShards & (kShards - 1)) == 0, "kShards is a power of two");
  return shards_[static_cast<size_t>(key >> 48) & (kShards - 1)];
}

void EstimateCache::SyncShardVersion(Shard& shard, int64_t snapshot_version) {
  if (shard.version == snapshot_version) return;
  if (!shard.lru.empty()) {
    shard.lru.clear();
    shard.index.clear();
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::Get().invalidations->Increment();
  }
  shard.version = snapshot_version;
}

std::optional<double> EstimateCache::Get(int64_t snapshot_version,
                                         uint64_t code_hash,
                                         std::string_view code) {
  // Probe latency is worth a clock pair only while telemetry is on.
  const bool timed = obs::Enabled();
  const std::chrono::steady_clock::time_point probe_start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point();
  ProbeTimer probe_timer(timed, probe_start);
  const uint64_t key = KeyFor(code_hash);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  SyncShardVersion(shard, snapshot_version);
  auto it = shard.index.find(key);
  if (it != shard.index.end() && it->second->code == code) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
    hits_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::Get().hits->Increment();
    return it->second->estimate;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::Get().misses->Increment();
  return std::nullopt;
}

void EstimateCache::Put(int64_t snapshot_version, uint64_t code_hash,
                        std::string_view code, double estimate) {
  const uint64_t key = KeyFor(code_hash);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  SyncShardVersion(shard, snapshot_version);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Same key: refresh. A 64-bit collision between distinct codes simply
    // overwrites the slot — correctness is preserved because Get verifies
    // the code before serving.
    it->second->code.assign(code);
    it->second->estimate = estimate;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::Get().evictions->Increment();
  }
  Entry entry;
  entry.key = key;
  entry.code.assign(code);
  entry.estimate = estimate;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
}

size_t EstimateCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

EstimateCache::Stats EstimateCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace treelattice
