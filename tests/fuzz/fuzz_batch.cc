// Fuzz harness for the serve protocol's one request-line parser
// (DESIGN.md §14). The input's first byte picks the per-line query cap,
// the rest is the request line. ParseRequestLine must never crash on
// arbitrary bytes; when it accepts, the invariants checked are:
//
//   * a scalar line (bare query or envelope) carries exactly one query;
//     an array line carries 1 <= items <= max_items (when a cap is set);
//     every query is non-empty
//   * the response round-trip: a ServeBatchResponse echoing the parsed
//     items renders as ONE newline-free JSON value that re-parses as an
//     object for a scalar line and as an array with exactly one element
//     per query for an array line — fuzzer-chosen query bytes (quotes,
//     backslashes, control bytes, UTF-8 fragments) must survive the JSON
//     escaping round trip

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/server.h"
#include "util/json.h"
#include "util/status.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  // First byte steers the configuration; the rest is the request line.
  const uint8_t knob = data[0];
  const size_t max_items = knob & 0x0F;  // 0 = uncapped, else 1..15
  const std::string_view line(reinterpret_cast<const char*>(data + 1),
                              size - 1);

  treelattice::serve::ServeBatch batch;
  if (!treelattice::serve::ParseRequestLine(line, max_items, &batch).ok()) {
    return 0;
  }

  if (batch.items.empty()) __builtin_trap();
  if (batch.scalar && batch.items.size() != 1) __builtin_trap();
  if (!batch.scalar && max_items > 0 && batch.items.size() > max_items) {
    __builtin_trap();
  }

  treelattice::serve::ServeBatchResponse response;
  response.scalar = batch.scalar;
  response.items.reserve(batch.items.size());
  for (const treelattice::serve::ServeRequest& item : batch.items) {
    if (item.query.empty()) __builtin_trap();
    treelattice::serve::ServeResponse out;
    out.id = item.id;
    out.query = item.query;
    out.ok = (knob & 0x10) != 0;
    if (out.ok) {
      out.estimate = static_cast<double>(item.max_work_steps);
      out.rung = "primary";
    } else {
      out.error_code = "InvalidArgument";
      out.error_message = item.query;  // error text is escaped too
    }
    response.items.push_back(std::move(out));
  }

  const std::string wire = response.ToJsonLine();
  if (wire.find('\n') != std::string::npos) __builtin_trap();
  treelattice::Result<treelattice::JsonValue> parsed =
      treelattice::ParseJson(wire);
  if (!parsed.ok()) __builtin_trap();
  if (batch.scalar) {
    if (!parsed->is_object()) __builtin_trap();
  } else if (!parsed->is_array() ||
             parsed->array.size() != batch.items.size()) {
    __builtin_trap();
  }
  return 0;
}
