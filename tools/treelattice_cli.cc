// treelattice — command-line front end for the library.
//
//   treelattice build <doc.xml> --out=<summary> [--level=4]
//       [--prune-delta=<d>]        mine a K-lattice summary from XML,
//                                  dropping patterns the non-voting
//                                  recursion derives within d
//   treelattice stats <summary>    print per-level pattern counts & size
//   treelattice verify <summary>   check checksums, print per-level integrity
//   treelattice estimate <summary> <query>... [--estimator=recursive|
//       voting|voting-median|fixed] [--batch] [--json] [--explain]
//                                  estimate selectivity of queries
//   treelattice truth <doc.xml> <query>...
//                                  exact match counts (ground truth)
//   treelattice serve <summary> [--workers=4] [--queue=128]
//       [--deadline-ms=<d>] [--max-steps=65536]
//                                  answer newline-delimited queries on stdin
//                                  with JSON lines on stdout until EOF or
//                                  SIGTERM/SIGINT (graceful drain)
//
// Queries may be written in the twig format "a(b,c(d))" or as an XPath
// subset "/a/b[c][d/e]" — anything containing '/' or '[' is treated as
// XPath. `build` writes a single TLSUMMARY v2 container (checksummed,
// written atomically, label dictionary embedded), so estimation never
// needs the original document or a sidecar file. Summaries from older
// builds (v1 text + <out>.dict sidecar) still load.
//
// Every subcommand also takes the telemetry flags
//   --metrics=<file|->           dump the metrics registry after the command
//   --metrics-format=json|prom   registry dump format (default json)
//   --trace=<file>               write a Chrome trace_event JSON file
// and `estimate --json` prints one JSON record per query instead of the
// human table.

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/batch_estimator.h"
#include "core/decomposition_record.h"
#include "core/estimator_metrics.h"
#include "core/fixed_size_estimator.h"
#include "core/pruning.h"
#include "core/recursive_estimator.h"
#include "harness/flags.h"
#include "io/env.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/introspect.h"
#include "serve/server.h"
#include "serve/slow_log.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "util/net.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "xml/parser.h"
#include "xpath/xpath.h"

namespace treelattice {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  treelattice build <doc.xml> --out=<summary> [--level=4] "
               "[--prune-delta=<d>]\n"
               "  treelattice stats <summary>\n"
               "  treelattice verify <summary>\n"
               "  treelattice estimate <summary> <query>... "
               "[--estimator=recursive|voting|voting-median|fixed] "
               "[--explain] [--json] [--batch]\n"
               "  treelattice truth <doc.xml> <query>...\n"
               "  treelattice serve <summary> [--workers=4] [--queue=128]\n"
               "      [--deadline-ms=<d>] [--max-steps=65536] "
               "[--estimator=voting|recursive|voting-median]\n"
               "      [--reload-attempts=3] [--reload-backoff-ms=10] "
               "[--worker-delay-ms=0]\n"
               "      [--cache-capacity=1024]\n"
               "      [--listen=<host:port>] [--max-conns=1024] "
               "[--max-frame-bytes=1048576]\n"
               "      [--idle-timeout-ms=300000] [--request-timeout-ms=30000] "
               "[--drain-ms=5000]\n"
               "      [--write-high-water=1048576] [--poll] "
               "[--net-fault-seed=<s>]\n"
               "      [--net-fault-short=<p>] [--net-fault-eagain=<p>] "
               "[--net-fault-reset=<p>]\n"
               "      [--admin=<host:port>] [--slow-threshold-ms=250] "
               "[--slow-log-size=128]\n"
               "      [--trace-flush-ms=1000]\n"
               "\n"
               "build --prune-delta=<d> drops every level-3+ pattern that the "
               "non-voting\nrecursion estimates within relative error d from "
               "the patterns kept. At d=0\nthat recursion's answers "
               "(--estimator=recursive) stay unchanged; voting\nanswers, "
               "serve's default, may change.\n"
               "\n"
               "serve reads one request per line from stdin — a bare query, "
               "or a JSON\nenvelope {\"query\":...,\"deadline_ms\":...,"
               "\"max_steps\":...,\"id\":...} — and\nwrites one JSON response "
               "per request to stdout. Control lines: '#reload'\nhot-swaps "
               "the summary from disk (keeping the old snapshot on failure),\n"
               "'#stats' prints a stats record. SIGTERM/SIGINT or EOF drain "
               "gracefully.\n"
               "\n"
               "serve --listen answers the same protocol over TCP instead of "
               "stdin:\nmany concurrent connections, pipelined NDJSON, "
               "backpressure, idle and\nslowloris timeouts, a connection cap "
               "with ResourceExhausted turn-away,\nand graceful drain on "
               "SIGTERM (unfinished work is cancelled after\n--drain-ms, "
               "stuck peers closed at twice that). --listen=:0 picks an\n"
               "ephemeral port, printed as 'serve: listening on "
               "<host>:<port>'.\n"
               "\n"
               "serve --listen --admin=<host:port> adds an HTTP introspection "
               "plane on the\nsame event loop: GET /metrics (Prometheus), "
               "/healthz (readiness), /statusz\n(full status JSON), /slowz "
               "(slow-query log). Requests slower than\n--slow-threshold-ms "
               "are kept (newest --slow-log-size) with their full\nstage "
               "timeline and twig shape. With --trace, serve flushes the "
               "trace file\nevery --trace-flush-ms so it survives an abnormal "
               "exit.\n"
               "\n"
               "telemetry flags (any subcommand):\n"
               "  --metrics=<file|->           dump the metrics registry "
               "after the command\n"
               "  --metrics-format=json|prom   dump format (default json)\n"
               "  --trace=<file>               write Chrome trace_event JSON "
               "(chrome://tracing)\n"
               "\n"
               "estimate --json prints one JSON record per query (estimate, "
               "wall micros,\nsummary lookup and decomposition counters). "
               "--explain prints under\neach estimate the decomposition "
               "recorded by the call that answered it; its root\nline is the "
               "estimate at 17 digits (not with --estimator=fixed).\n"
               "\n"
               "estimate answers each query as a batch of one (DESIGN.md "
               "§14); --batch makes\nall of them one batch: whole-query "
               "dedup and a shared sub-twig memo — less\nwork, and the same "
               "estimates. Every spelling of a twig (its children in\nany "
               "order) gets one estimate. --estimator=fixed answers in either "
               "form.\nserve accepts the batch form too: a JSON array request "
               "line (of query\nstrings or request envelopes) gets one JSON "
               "array response line, in\norder, both on stdin and over "
               "--listen.\n"
               "\n"
               "Every numeric flag of build and serve, and --trace-flush-ms, "
               "must parse\ncompletely and lie in its range, or the command "
               "exits 2 naming the flag\nbefore it starts: --level from 2, "
               "--workers from 1 to 1024, --reload-attempts\nfrom 1 to 100, "
               "--net-fault-* from 0 to 1, --slow-log-size at most 65536,\n"
               "and every other size, count or -ms flag non-negative.\n"
               "--cache-capacity=0 turns the estimate cache off. "
               "--max-frame-bytes bounds a\nrequest line on stdin and "
               "over --listen alike. Unknown flags are ignored.\n");
  return 2;
}

/// The recursive estimator options an --estimator kind names:
/// "recursive", "voting" or "voting-median"; nullopt for any other kind.
std::optional<RecursiveDecompositionEstimator::Options> RecursiveOptionsFor(
    const std::string& kind) {
  using Options = RecursiveDecompositionEstimator::Options;
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  if (kind == "recursive") return Options{false, 0, Agg::kMean};
  if (kind == "voting") return Options{true, 0, Agg::kMean};
  if (kind == "voting-median") return Options{true, 0, Agg::kMedian};
  return std::nullopt;
}

/// Positional (non --flag) arguments after the subcommand.
std::vector<std::string> Positionals(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) out.emplace_back(argv[i]);
  }
  return out;
}

/// Durations in milliseconds are read from 0 up to about 31 years.
constexpr double kMaxFlagMillis = 1e12;

/// Reads the numeric flag --`name` of `command`: `fallback` when the flag
/// is absent. A present flag must parse completely, as an integer when T
/// is one, and lie in [lo, hi]; otherwise an error naming the flag is
/// printed and *ok cleared, so the command exits 2 before it starts.
template <typename T>
T NumericFlag(const Flags& flags, const char* command, const char* name,
              T fallback, T lo, T hi, bool* ok) {
  const auto it = flags.All().find(name);
  if (it == flags.All().end()) return fallback;
  const std::string& text = it->second;
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc() && end == text.data() + text.size() &&
      value >= lo && value <= hi) {
    return value;
  }
  auto shown = [](T bound) {
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(bound);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", bound);
      return std::string(buf);
    }
  };
  std::fprintf(stderr, "%s: --%s must be %s from %s to %s, not '%s'\n",
               command, name, std::is_integral_v<T> ? "an integer" : "a number",
               shown(lo).c_str(), shown(hi).c_str(), text.c_str());
  *ok = false;
  return fallback;
}

/// Loads a summary for read commands, warning on salvage. Returns nullopt
/// (after printing the error) when nothing loadable exists.
std::optional<LoadedSummary> LoadOrComplain(const std::string& path) {
  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return std::nullopt;
  }
  if (loaded->salvaged) {
    std::fprintf(stderr,
                 "warning: %s is damaged (%s); salvaged %zu patterns, "
                 "complete through level %d\n",
                 path.c_str(), loaded->corruption_detail.c_str(),
                 loaded->summary.NumPatterns(),
                 loaded->summary.complete_through_level());
  }
  return std::move(*loaded);
}

int RunBuild(int argc, char** argv, const Flags& flags) {
  std::vector<std::string> args = Positionals(argc, argv);
  if (args.size() != 1) return Usage();
  std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "build: --out=<summary> is required\n");
    return 2;
  }
  bool ok = true;
  LatticeBuildOptions options;
  options.max_level = NumericFlag(flags, "build", "level", 4, 2,
                                  LatticeSummary::kMaxLevelCap, &ok);
  // Negative means no pruning; a given --prune-delta must be a tolerance.
  const double delta =
      NumericFlag(flags, "build", "prune-delta", -1.0, 0.0, 1e300, &ok);
  if (!ok) return 2;

  WallTimer timer;
  Result<Document> doc = ParseXmlFile(args[0]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed %zu elements in %.2fs\n", doc->NumNodes(),
              timer.ElapsedSeconds());

  LatticeBuildStats stats;
  Result<LatticeSummary> summary = BuildLattice(*doc, options, &stats);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("mined %zu patterns (levels 1-%d) in %.2fs\n",
              summary->NumPatterns(), options.max_level, stats.build_seconds);

  if (delta >= 0.0) {
    PruneOptions prune;
    prune.delta = delta;
    PruneStats prune_stats;
    Result<LatticeSummary> pruned =
        PruneDerivablePatterns(*summary, prune, &prune_stats);
    if (!pruned.ok()) {
      std::fprintf(stderr, "%s\n", pruned.status().ToString().c_str());
      return 1;
    }
    std::printf("pruned %zu derivable patterns (delta=%.2f): %s -> %s\n",
                prune_stats.patterns_before - prune_stats.patterns_after,
                delta, HumanBytes(prune_stats.bytes_before).c_str(),
                HumanBytes(prune_stats.bytes_after).c_str());
    summary = std::move(pruned);
  }

  if (Status s = SaveSummaryV2(*summary, &doc->dict(), Env::Default(),
                               out_path);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Result<uint64_t> file_size = Env::Default()->GetFileSize(out_path);
  std::printf("wrote %s (%s, dict embedded)\n", out_path.c_str(),
              HumanBytes(file_size.ok() ? *file_size : 0).c_str());
  return 0;
}

int RunStats(int argc, char** argv) {
  std::vector<std::string> args = Positionals(argc, argv);
  if (args.size() != 1) return Usage();
  std::optional<LoadedSummary> loaded = LoadOrComplain(args[0]);
  if (!loaded) return 1;
  const LatticeSummary& summary = loaded->summary;
  std::printf("format:           TLSUMMARY v%d\n", loaded->format_version);
  std::printf("max level:        %d\n", summary.max_level());
  std::printf("complete through: %d\n", summary.complete_through_level());
  std::printf("dict:             %s\n",
              !loaded->dict                ? "none"
              : loaded->dict_from_sidecar ? "sidecar (.dict)"
                                          : "embedded");
  for (int level = 1; level <= summary.max_level(); ++level) {
    std::printf("level %d patterns: %zu\n", level, summary.NumPatterns(level));
  }
  std::printf("total:            %zu patterns, %s\n", summary.NumPatterns(),
              HumanBytes(summary.MemoryBytes()).c_str());
  return 0;
}

int RunVerify(int argc, char** argv) {
  std::vector<std::string> args = Positionals(argc, argv);
  if (args.size() != 1) return Usage();
  Result<VerifyReport> report = VerifySummaryFile(Env::Default(), args[0]);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("format:           TLSUMMARY v%d\n", report->format_version);
  if (report->format_version == 2) {
    std::printf("max level:        %d\n", report->max_level);
    std::printf("complete through: %d\n", report->complete_through_level);
    std::printf("declared patterns:%llu\n",
                static_cast<unsigned long long>(report->total_patterns));
    for (const SectionIntegrity& section : report->sections) {
      std::string name;
      switch (section.tag) {
        case 'D':
          name = "dict";
          break;
        case 'L':
          name = "level " + std::to_string(section.level);
          break;
        default:
          name = "end marker";
      }
      if (section.intact) {
        if (section.tag == 'L') {
          std::printf("%-12s OK       %llu patterns\n", name.c_str(),
                      static_cast<unsigned long long>(section.patterns));
        } else {
          std::printf("%-12s OK\n", name.c_str());
        }
      } else {
        std::printf("%-12s CORRUPT  %s\n", name.c_str(),
                    section.detail.c_str());
      }
    }
  }
  if (report->intact) {
    std::printf("RESULT: intact\n");
    return 0;
  }
  std::printf("RESULT: CORRUPT (%s); salvage keeps complete through level %d\n",
              report->detail.c_str(),
              report->salvage_complete_through_level);
  return 1;
}

int RunEstimate(int argc, char** argv, const Flags& flags) {
  std::vector<std::string> args = Positionals(argc, argv);
  if (args.size() < 2) return Usage();
  std::optional<LoadedSummary> loaded = LoadOrComplain(args[0]);
  if (!loaded) return 1;
  const LatticeSummary& summary = loaded->summary;

  std::optional<LabelDict> dict = std::move(loaded->dict);
  if (!dict) {
    std::fprintf(stderr,
                 "no dictionary for %s: v2 summaries embed one, v1 summaries "
                 "need the .dict sidecar next to the file\n",
                 args[0].c_str());
    return 1;
  }

  // --estimator=fixed answers with the fixed-size estimator; every other
  // kind goes through the BatchEstimator.
  const std::string kind = flags.GetString("estimator", "recursive");
  const std::optional<RecursiveDecompositionEstimator::Options> recursive =
      RecursiveOptionsFor(kind);
  if (!recursive && kind != "fixed") {
    std::fprintf(stderr, "unknown estimator '%s'\n", kind.c_str());
    return 2;
  }
  const bool explain = flags.GetBool("explain", false);
  if (explain && !recursive) {
    std::fprintf(stderr, "--explain needs a recursive estimator, not fixed\n");
    return 2;
  }
  FixedSizeDecompositionEstimator fixed(&summary);
  BatchEstimator batch(&summary, recursive.value_or(
      RecursiveDecompositionEstimator::Options{}));
  const bool batched = flags.GetBool("batch", false);
  std::string name =
      recursive ? RecursiveDecompositionEstimator(&summary, *recursive).name()
                : fixed.name();
  if (batched) name = "batch+" + name;

  const bool json = flags.GetBool("json", false);
  // Per-call counter deltas for --json. Every estimator shares the
  // estimator.* names, so one set of before/after reads works for all.
  EstimatorMetrics& em = EstimatorMetrics::Get();
  struct NamedCounter {
    const char* key;
    obs::Counter* counter;
  };
  const NamedCounter delta_counters[] = {
      {"summary_hits", em.summary_hits},
      {"summary_misses", em.summary_misses},
      {"exhaustive_zeros", em.exhaustive_zeros},
      {"decompositions", em.decompositions},
      {"zero_overlap_fallbacks", em.zero_overlap_fallbacks},
      {"memo_hits", em.memo_hits},
      {"saturations", em.saturations},
  };

  // One parse -> estimate -> render loop. Under --batch one call covers
  // every query; otherwise each query is a call (a batch of one).
  const std::span<const std::string> texts(args.data() + 1, args.size() - 1);
  const size_t per_call = batched ? texts.size() : 1;
  int failures = 0;
  for (size_t start = 0; start < texts.size(); start += per_call) {
    std::vector<Twig> twigs;
    std::vector<const std::string*> shown;
    for (const std::string& text : texts.subspan(start, per_call)) {
      Result<Twig> query = CompileQuery(text, &*dict);
      if (!query.ok()) {
        std::fprintf(stderr, "%s: %s\n", text.c_str(),
                     query.status().ToString().c_str());
        ++failures;
        continue;
      }
      twigs.push_back(std::move(*query));
      shown.push_back(&text);
    }
    if (twigs.empty()) continue;

    std::vector<EstimateResult> results(twigs.size());
    // Under --explain each query gets a record, written by the call whose
    // answers are printed.
    std::vector<DecompositionRecord> records(explain ? twigs.size() : 0);
    std::vector<EstimateOptions> options(explain ? twigs.size() : 1);
    for (size_t k = 0; k < records.size(); ++k) options[k].record = &records[k];
    uint64_t before[std::size(delta_counters)];
    for (size_t c = 0; c < std::size(delta_counters); ++c) {
      before[c] = delta_counters[c].counter->value();
    }
    WallTimer timer;
    if (recursive) {
      IgnoreStatus(batch.EstimateBatch(twigs, options, results),
                   "one result per twig");
    } else {
      for (size_t k = 0; k < twigs.size(); ++k) {
        Result<double> estimate = fixed.Estimate(twigs[k]);
        results[k].status = estimate.status();
        results[k].estimate = estimate.ok() ? *estimate : 0.0;
      }
    }
    const double wall_micros = timer.ElapsedMicros();

    for (size_t k = 0; k < twigs.size(); ++k) {
      const std::string& text = *shown[k];
      if (!results[k].status.ok()) {
        std::fprintf(stderr, "%s: %s\n", text.c_str(),
                     results[k].status.ToString().c_str());
        ++failures;
        continue;
      }
      if (json) {
        JsonWriter w;
        w.BeginObject();
        w.Key("query").String(text);
        w.Key("estimator").String(name);
        w.Key("estimate").Double(results[k].estimate);
        if (batched) {
          w.Key("batch_size").Uint(twigs.size());
          w.Key("batch_wall_micros").Double(wall_micros);
        } else {
          w.Key("wall_micros").Double(wall_micros);
          w.Key("counters").BeginObject();
          for (size_t c = 0; c < std::size(delta_counters); ++c) {
            w.Key(delta_counters[c].key)
                .Uint(delta_counters[c].counter->value() - before[c]);
          }
          w.EndObject();
        }
        w.EndObject();
        std::printf("%s\n", w.str().c_str());
      } else if (batched) {
        std::printf("%-50s %14.2f   (batch of %zu, %.0f us total, %s)\n",
                    text.c_str(), results[k].estimate, twigs.size(),
                    wall_micros, name.c_str());
      } else {
        std::printf("%-50s %14.2f   (%.0f us, %s)\n", text.c_str(),
                    results[k].estimate, wall_micros, name.c_str());
      }
      if (explain) {
        // A duplicate ran as its first occurrence, whose record holds it.
        size_t first = 0;
        while (!(twigs[first] == twigs[k])) ++first;
        std::printf("%s", records[first].Render(twigs[first], *dict).c_str());
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

int RunTruth(int argc, char** argv) {
  std::vector<std::string> args = Positionals(argc, argv);
  if (args.size() < 2) return Usage();
  Result<Document> doc = ParseXmlFile(args[0]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  MatchCounter counter(*doc);
  int failures = 0;
  for (size_t i = 1; i < args.size(); ++i) {
    Result<Twig> query = CompileQuery(args[i], &doc->mutable_dict());
    Status countable =
        query.ok() ? MatchCounter::Countable(*query) : query.status();
    if (!countable.ok()) {
      std::fprintf(stderr, "%s: %s\n", args[i].c_str(),
                   countable.ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("%-50s %14llu\n", args[i].c_str(),
                static_cast<unsigned long long>(counter.Count(*query)));
  }
  return failures == 0 ? 0 : 1;
}

// --- serve ---------------------------------------------------------------

volatile std::sig_atomic_t g_serve_shutdown = 0;

void HandleServeSignal(int) { g_serve_shutdown = 1; }

/// Installs a handler WITHOUT SA_RESTART so a blocking stdin read returns
/// with EINTR on SIGTERM/SIGINT instead of silently resuming — that is
/// what lets the read loop notice the signal and start the drain.
void InstallServeSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleServeSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// The TCP leg of `serve --listen`: the Transport owns the event loop and
/// its Server, `control` answers '#reload', and the signal flag becomes a
/// graceful drain. `net` arrives with its numeric options set.
int RunServeTcp(const std::string& listen, serve::ServerOptions options,
                serve::Transport::Options net,
                serve::Transport::ControlHandler control,
                serve::SnapshotHolder* snapshots, serve::SlowQueryLog* slow_log,
                const Flags& flags) {
  Result<HostPort> host_port = ParseHostPort(listen);
  if (!host_port.ok()) {
    std::fprintf(stderr, "serve: bad --listen '%s': %s\n", listen.c_str(),
                 host_port.status().ToString().c_str());
    return 2;
  }

  net.host = host_port->host;
  net.port = host_port->port;
  net.slow_log = slow_log;
  if (std::string admin = flags.GetString("admin", ""); !admin.empty()) {
    Result<HostPort> admin_host_port = ParseHostPort(admin);
    if (!admin_host_port.ok()) {
      std::fprintf(stderr, "serve: bad --admin '%s': %s\n", admin.c_str(),
                   admin_host_port.status().ToString().c_str());
      return 2;
    }
    net.admin_enabled = true;
    net.admin_host = admin_host_port->host;
    net.admin_port = admin_host_port->port;
  }

  const int workers = options.workers;
  const size_t queue_capacity = options.queue_capacity;
  serve::Transport transport(snapshots, std::move(options), net,
                             std::move(control));
  Result<uint16_t> port = transport.Listen();
  if (!port.ok()) {
    std::fprintf(stderr, "serve: cannot listen on %s: %s\n", listen.c_str(),
                 port.status().ToString().c_str());
    return 1;
  }

  InstallServeSignalHandlers();
  std::fprintf(stderr, "serve: listening on %s:%u\n", net.host.c_str(),
               static_cast<unsigned>(*port));
  if (net.admin_enabled) {
    std::fprintf(stderr, "serve: admin on %s:%u\n", net.admin_host.c_str(),
                 static_cast<unsigned>(transport.admin_port()));
  }
  std::fprintf(stderr, "serve: ready (%d workers, queue %zu)\n", workers,
               queue_capacity);

  Status run = transport.Run(&g_serve_shutdown);
  serve::Transport::Stats stats = transport.GetStats();
  std::fprintf(stderr,
               "serve: drained (accepted=%llu rejected=%llu admitted=%llu "
               "delivered=%llu orphaned=%llu resets=%llu drain_ms=%.1f)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.requests_admitted),
               static_cast<unsigned long long>(stats.responses_delivered),
               static_cast<unsigned long long>(stats.responses_orphaned),
               static_cast<unsigned long long>(stats.resets),
               stats.drain_micros / 1000.0);
  if (!run.ok()) {
    std::fprintf(stderr, "serve: transport error: %s\n",
                 run.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunServe(int argc, char** argv, const Flags& flags) {
  std::vector<std::string> args = Positionals(argc, argv);
  if (args.size() != 1) return Usage();
  const std::string& summary_path = args[0];

  // Every numeric flag is checked before the summary loads, whichever
  // mode it belongs to.
  bool ok = true;
  auto count = [&](const char* name, uint64_t fallback,
                   uint64_t hi = INT64_MAX) {
    return NumericFlag<uint64_t>(flags, "serve", name, fallback, 0, hi, &ok);
  };
  auto millis = [&](const char* name, double fallback) {
    return NumericFlag(flags, "serve", name, fallback, 0.0, kMaxFlagMillis,
                       &ok);
  };
  auto probability = [&](const char* name) {
    return NumericFlag(flags, "serve", name, 0.0, 0.0, 1.0, &ok);
  };
  serve::ServerOptions options;
  options.workers = NumericFlag(flags, "serve", "workers", 4, 1, 1024, &ok);
  options.queue_capacity = count("queue", 128);
  options.default_deadline_millis = millis("deadline-ms", 0.0);
  options.default_max_work_steps =
      count("max-steps", options.default_max_work_steps);
  options.worker_delay_millis = millis("worker-delay-ms", 0.0);
  options.estimate_cache_capacity = count("cache-capacity", 1024);
  serve::Transport::Options net;
  net.max_connections = static_cast<int>(count("max-conns", 1024, INT_MAX));
  net.max_frame_bytes = count("max-frame-bytes", 1 << 20);
  net.write_high_water = count("write-high-water", 1 << 20);
  net.idle_timeout_millis = millis("idle-timeout-ms", 300000.0);
  net.request_timeout_millis = millis("request-timeout-ms", 30000.0);
  net.drain_deadline_millis = millis("drain-ms", 5000.0);
  net.force_poll = flags.GetBool("poll", false);
  net.faults.seed = count("net-fault-seed", 0, UINT64_MAX);
  net.faults.short_io = probability("net-fault-short");
  net.faults.eagain = probability("net-fault-eagain");
  net.faults.reset = probability("net-fault-reset");
  serve::SlowQueryLog::Options slow_options;
  slow_options.threshold_millis = millis("slow-threshold-ms", 250.0);
  slow_options.capacity =
      count("slow-log-size", 128, serve::SlowQueryLog::kMaxCapacity);
  serve::ReloadOptions reload;
  reload.attempts =
      NumericFlag(flags, "serve", "reload-attempts", 3, 1, 100, &ok);
  reload.backoff_millis = millis("reload-backoff-ms", 10.0);
  if (!ok) return 2;

  const std::string kind = flags.GetString("estimator", "voting");
  const std::optional<RecursiveDecompositionEstimator::Options> primary =
      RecursiveOptionsFor(kind);
  if (!primary) {
    std::fprintf(stderr, "unknown estimator '%s'\n", kind.c_str());
    return 2;
  }
  options.estimator.primary = *primary;

  // Startup accepts a salvaged summary (a degraded snapshot beats not
  // starting); hot reloads below stay strict so a damaged file on disk
  // never replaces a good serving snapshot.
  serve::SnapshotHolder snapshots;
  serve::ReloadOptions startup = reload;
  startup.accept_salvaged = true;
  if (Status s = serve::ReloadSummary(Env::Default(), summary_path, startup,
                                      &snapshots);
      !s.ok()) {
    std::fprintf(stderr, "serve: cannot load %s: %s\n", summary_path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (std::shared_ptr<const serve::SummarySnapshot> snap = snapshots.Get();
      snap != nullptr && snap->salvaged) {
    std::fprintf(stderr, "serve: warning: serving salvaged summary (%s)\n",
                 snap->source.c_str());
  }

  // The slow-query ring is shared by both modes: the transport finalizes
  // into it on the TCP path, the stdin sink below on the pipe path.
  serve::SlowQueryLog slow_log(slow_options);

  // '#reload' hot-swaps the summary from disk, keeping the serving snapshot
  // on failure, and logs the outcome to stderr; the returned JSON ack
  // answers the line on stdin and over TCP. It runs on the reading thread:
  // reloads are rare and the strict loader fails fast.
  auto control = [&](std::string_view line) -> std::string {
    if (line != "#reload") return std::string();
    Status s =
        serve::ReloadSummary(Env::Default(), summary_path, reload, &snapshots);
    if (s.ok()) {
      std::fprintf(stderr, "serve: reloaded %s (snapshot v%lld)\n",
                   summary_path.c_str(),
                   static_cast<long long>(snapshots.version()));
    } else {
      std::fprintf(stderr, "serve: reload failed, keeping snapshot v%lld: %s\n",
                   static_cast<long long>(snapshots.version()),
                   s.ToString().c_str());
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("reload").BeginObject();
    w.Key("ok").Bool(s.ok());
    if (!s.ok()) w.Key("error").String(s.ToString());
    w.Key("snapshot_version").Int(snapshots.version());
    w.EndObject();
    w.EndObject();
    return w.TakeString();
  };

  if (std::string listen = flags.GetString("listen", ""); !listen.empty()) {
    return RunServeTcp(listen, std::move(options), net, control, &snapshots,
                       &slow_log, flags);
  }

  // One fprintf call per line: stdio's per-call lock keeps worker output
  // lines whole even though #stats lines come from the main thread.
  // stdout's flush is the pipe-mode "wire": the trace's serialize stage
  // covers JSON rendering, flush covers fprintf+fflush.
  serve::Server server(
      &snapshots, options, [&slow_log](serve::ServeBatchResponse response) {
        serve::RequestTrace trace = response.trace;
        const std::string line = response.ToJsonLine();
        trace.StampSerialized();
        std::fprintf(stdout, "%s\n", line.c_str());
        std::fflush(stdout);
        trace.StampFlushed();
        serve::FinalizeRequestTrace(trace, serve::OutcomeOf(response),
                                    &slow_log);
      });

  InstallServeSignalHandlers();
  std::fprintf(stderr, "serve: ready (%d workers, queue %zu)\n",
               options.workers, options.queue_capacity);

  // stdin is one request stream of the line protocol every TCP connection
  // speaks (serve/conn.h): the same framing, numbering and answers. A line
  // longer than --max-frame-bytes gets one error response, the next line
  // is read normally, and a last line without its newline is still
  // answered. #stats renders the snapshot the TCP transport and /statusz
  // render (serve/introspect.h), so the surfaces cannot drift apart.
  const serve::LineProtocol protocol(
      net.max_frame_bytes, options.queue_capacity,
      [&](std::string_view line) -> std::string {
        if (line != "#stats") return control(line);
        serve::StatusSnapshot status;
        status.server = server.GetStats();
        status.queue_capacity = options.queue_capacity;
        status.workers = options.workers;
        status.snapshot_version = snapshots.version();
        if (auto snap = snapshots.Get()) {
          status.snapshot_salvaged = snap->salvaged;
        }
        status.slow_queries = slow_log.total_recorded();
        status.slow_threshold_millis = slow_log.options().threshold_millis;
        return serve::introspect::StatsJsonLine(status);
      });
  serve::NdjsonFramer framer(net.max_frame_bytes);
  std::vector<serve::NdjsonFramer::Event> lines;
  size_t next_line = 0;
  bool eof = false;
  uint64_t line_number = 0;
  uint64_t req = 0;
  std::string answer;
  while (g_serve_shutdown == 0) {
    if (next_line == lines.size()) {
      if (eof) break;
      char chunk[65536];
      const ssize_t got = read(STDIN_FILENO, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;  // re-checks the signal flag
      eof = got <= 0;  // EOF or a read error: drain
      lines.clear();
      next_line = 0;
      framer.Feed(eof ? std::string_view("\n")
                      : std::string_view(chunk, static_cast<size_t>(got)),
                  &lines);
      continue;
    }
    serve::ServeBatch batch;
    if (protocol.Step(lines[next_line++], &line_number, &req, &batch,
                      &answer)) {
      server.Submit(std::move(batch));
    } else {
      std::fprintf(stdout, "%s\n", answer.c_str());
      std::fflush(stdout);
    }
  }

  // EOF or signal: stop admission, answer everything already queued, then
  // report the tally. Every submitted request got exactly one response.
  server.Shutdown();
  serve::Server::Stats stats = server.GetStats();
  std::fprintf(stderr,
               "serve: drained (submitted=%llu ok=%llu errors=%llu "
               "shed=%llu degraded=%llu)\n",
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.ok),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.degraded));
  return 0;
}

/// Writes the registry dump after a command: "-" → stdout, otherwise an
/// atomic file write. Failures are reported but do not change the command's
/// exit code — telemetry must never mask the real result.
void DumpMetrics(const std::string& target, const std::string& format) {
  std::string text = (format == "prom")
                         ? obs::MetricsRegistry::Default()->ToPrometheusText()
                         : obs::MetricsRegistry::Default()->ToJson();
  if (target == "-") {
    std::printf("%s\n", text.c_str());
    return;
  }
  if (Status s = WriteFileAtomic(Env::Default(), target, text); !s.ok()) {
    std::fprintf(stderr, "--metrics: %s\n", s.ToString().c_str());
  }
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv);
  std::string command = argv[1];

  const std::string metrics_target = flags.GetString("metrics", "");
  const std::string metrics_format = flags.GetString("metrics-format", "json");
  if (metrics_format != "json" && metrics_format != "prom") {
    std::fprintf(stderr, "--metrics-format must be json or prom\n");
    return 2;
  }
  // Long-running serve processes flush the trace file periodically so
  // spans survive SIGKILL/crash; one-shot commands write once at exit.
  bool ok = true;
  const double flush_millis =
      command == "serve" ? NumericFlag(flags, "serve", "trace-flush-ms", 1000.0,
                                       0.0, kMaxFlagMillis, &ok)
                         : 0.0;
  if (!ok) return 2;
  const std::string trace_target = flags.GetString("trace", "");
  if (!trace_target.empty()) {
    obs::Tracer::Start();
    if (flush_millis > 0.0) {
      if (Status s =
              obs::Tracer::StartPeriodicFlush(trace_target, flush_millis);
          !s.ok()) {
        std::fprintf(stderr, "--trace: periodic flush disabled: %s\n",
                     s.ToString().c_str());
      }
    }
  }

  int rc;
  if (command == "build") {
    rc = RunBuild(argc, argv, flags);
  } else if (command == "stats") {
    rc = RunStats(argc, argv);
  } else if (command == "verify") {
    rc = RunVerify(argc, argv);
  } else if (command == "estimate") {
    rc = RunEstimate(argc, argv, flags);
  } else if (command == "truth") {
    rc = RunTruth(argc, argv);
  } else if (command == "serve") {
    rc = RunServe(argc, argv, flags);
  } else {
    return Usage();
  }

  if (!trace_target.empty()) {
    obs::Tracer::StopPeriodicFlush();
    obs::Tracer::Stop();
    if (Status s = WriteFileAtomic(Env::Default(), trace_target,
                                   obs::Tracer::ChromeTraceJson());
        !s.ok()) {
      std::fprintf(stderr, "--trace: %s\n", s.ToString().c_str());
    }
  }
  if (!metrics_target.empty()) DumpMetrics(metrics_target, metrics_format);
  return rc;
}

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) { return treelattice::Main(argc, argv); }
