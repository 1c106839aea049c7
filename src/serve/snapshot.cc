#include "serve/snapshot.h"

#include <chrono>
#include <thread>
#include <utility>

#include "serve/serve_metrics.h"
#include "summary/summary_format.h"

namespace treelattice {
namespace serve {

namespace {

/// One load attempt: summary (either format) and its dictionary, embedded
/// or from the .dict sidecar (LoadSummary resolves both).
Result<std::shared_ptr<SummarySnapshot>> LoadAttempt(
    Env* env, const std::string& path, const ReloadOptions& options) {
  Result<LoadedSummary> loaded = LoadSummary(env, path);
  if (!loaded.ok()) return loaded.status();
  if (loaded->salvaged && !options.accept_salvaged) {
    return Status::Corruption("summary at " + path + " is damaged (" +
                              loaded->corruption_detail +
                              "); refusing salvaged reload");
  }

  if (!loaded->dict) {
    return Status::NotFound("no label dictionary for " + path +
                            " (v2 embeds one; v1 needs the .dict sidecar)");
  }

  auto snapshot = std::make_shared<SummarySnapshot>(
      std::move(loaded->summary), std::move(*loaded->dict));
  snapshot->salvaged = loaded->salvaged;
  snapshot->source =
      loaded->salvaged ? path + " (salvaged: " + loaded->corruption_detail + ")"
                       : path;
  return snapshot;
}

}  // namespace

Status ReloadSummary(Env* env, const std::string& path,
                     const ReloadOptions& options, SnapshotHolder* holder) {
  ServeMetrics& metrics = ServeMetrics::Get();
  Status last = Status::Internal("reload never attempted");
  const int attempts = options.attempts > 0 ? options.attempts : 1;
  double backoff = options.backoff_millis;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
      backoff *= 2.0;
    }
    Result<std::shared_ptr<SummarySnapshot>> snapshot =
        LoadAttempt(env, path, options);
    if (snapshot.ok()) {
      int64_t version = holder->Swap(std::move(*snapshot));
      metrics.reloads->Increment();
      metrics.snapshot_version->Set(version);
      return Status::OK();
    }
    last = snapshot.status();
  }
  metrics.reload_failures->Increment();
  return last;
}

}  // namespace serve
}  // namespace treelattice
