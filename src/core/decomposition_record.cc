#include "core/decomposition_record.h"

#include <bit>
#include <cstdio>

#include "util/hash.h"

namespace treelattice {

namespace {

/// Renders a record depth-first from the query's entry into `out`,
/// expanding each entry where it first appears.
struct Renderer {
  using Source = DecompositionRecord::Source;

  Renderer(const DecompositionRecord& record, const Twig& query,
           const LabelDict& dict)
      : entries(record.entries), shown(entries.size(), false) {
    for (size_t i = 0; i < entries.size(); ++i) {
      Result<Twig> sub = query.InducedSubtree(entries[i].nodes);
      text.push_back(sub.ok() ? sub->ToString(dict) : "?");
      first_of_shape.Insert(HashBytes(entries[i].code), entries[i].code,
                            static_cast<double>(i));
    }
  }

  void Show(uint32_t i, size_t indent, const char* role) {
    const DecompositionRecord::Entry& entry = entries[i];
    out.append(indent, ' ').append(role).append(text[i]);
    if (shown[i]) return Append("   [see #%u]\n", i);
    shown[i] = true;
    const bool exact =
        entry.source == Source::kSummary || entry.source == Source::kZero;
    Append(i == 0 ? " %s %.17g   [#%u " : " %s %.6g   [#%u ",
           exact ? "=" : "~=", entry.value, i);
    const auto first = static_cast<uint32_t>(
        *first_of_shape.Find(HashBytes(entry.code), entry.code));
    switch (entry.source) {
      case Source::kSummary:
        return Append("summary]\n");
      case Source::kZero:
        return Append("zero: its size is complete in the summary]\n");
      case Source::kMemo:
        // The first entry of this shape computed it, unless it read the
        // value too: then an earlier query of the batch did.
        if (entries[first].source != Source::kMemo) {
          return Append("memo: same shape as #%u]\n", first);
        }
        return Append("memo: from an earlier query of the batch]\n");
      case Source::kDecomposition:
        Append("%zu vote%s]\n", entry.votes.size(),
               entry.votes.size() == 1 ? "" : "s");
        for (size_t v = 0; v < entry.votes.size(); ++v) {
          const DecompositionRecord::Vote& vote = entry.votes[v];
          out.append(indent + 2, ' ');
          Append("vote %zu = T1 * T2 / overlap ~= %.6g\n", v + 1, vote.value);
          Show(vote.t1, indent + 4, "T1 ");
          Show(vote.t2, indent + 4, "T2 ");
          Show(vote.overlap, indent + 4, "overlap ");
        }
    }
  }

  template <typename... Args>
  void Append(const char* format, Args... args) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), format, args...);
    out.append(buffer);
  }

  const std::vector<DecompositionRecord::Entry>& entries;
  std::vector<bool> shown;
  std::vector<std::string> text;
  CodeMemo first_of_shape;  ///< the first entry of each code
  std::string out;
};

}  // namespace

std::string DecompositionRecord::Render(const Twig& query,
                                        const LabelDict& dict) const {
  if (entries.empty()) return std::string();
  Renderer renderer(*this, query, dict);
  renderer.Show(0, 0, "");
  return std::move(renderer.out);
}

uint32_t DecompositionRecord::Add(std::span<const uint64_t> nodes,
                                  std::string_view code, Source source,
                                  double value) {
  const auto index = static_cast<uint32_t>(entries.size());
  Entry& entry = entries.emplace_back();
  for (size_t w = 0; w < nodes.size(); ++w) {
    for (uint64_t bits = nodes[w]; bits != 0; bits &= bits - 1) {
      entry.nodes.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
  entry.code = code;
  entry.source = source;
  entry.value = value;
  const std::string_view key = NodeSetBytes(nodes);
  index_.Insert(HashBytes(key), key, index);
  return index;
}

void DecompositionRecord::AddVote(uint32_t entry, std::span<const uint64_t> t1,
                                  std::span<const uint64_t> t2,
                                  std::span<const uint64_t> overlap,
                                  double value) {
  auto index_of = [this](std::span<const uint64_t> nodes) {
    const std::string_view key = NodeSetBytes(nodes);
    return static_cast<uint32_t>(*index_.Find(HashBytes(key), key));
  };
  entries[entry].votes.push_back(
      Vote{index_of(t1), index_of(t2), index_of(overlap), value});
}

}  // namespace treelattice
