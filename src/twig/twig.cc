#include "twig/twig.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <limits>
#include <memory>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace treelattice {

Twig::Twig(const Twig& other)
    : labels_(other.labels_),
      parents_(other.parents_),
      children_(other.children_) {
  // Clone a warm cache rather than recomputing it on first use: copies of
  // already-canonicalized twigs (workload storage, snapshot plumbing) keep
  // their O(1) code access.
  const CodeCache* cache = other.cache_.load(std::memory_order_acquire);
  if (cache != nullptr) {
    cache_.store(std::make_unique<CodeCache>(*cache).release(),
                 std::memory_order_relaxed);
  }
}

Twig& Twig::operator=(const Twig& other) {
  if (this == &other) return *this;
  labels_ = other.labels_;
  parents_ = other.parents_;
  children_ = other.children_;
  InvalidateCache();
  const CodeCache* cache = other.cache_.load(std::memory_order_acquire);
  if (cache != nullptr) {
    cache_.store(std::make_unique<CodeCache>(*cache).release(),
                 std::memory_order_relaxed);
  }
  return *this;
}

Twig::Twig(Twig&& other) noexcept
    : labels_(std::move(other.labels_)),
      parents_(std::move(other.parents_)),
      children_(std::move(other.children_)),
      cache_(other.cache_.exchange(nullptr, std::memory_order_acq_rel)) {}

Twig& Twig::operator=(Twig&& other) noexcept {
  if (this == &other) return *this;
  labels_ = std::move(other.labels_);
  parents_ = std::move(other.parents_);
  children_ = std::move(other.children_);
  InvalidateCache();
  cache_.store(other.cache_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_relaxed);
  return *this;
}

Twig::~Twig() { delete cache_.load(std::memory_order_acquire); }

const Twig::CodeCache& Twig::EnsureCache() const {
  CodeCache* cache = cache_.load(std::memory_order_acquire);
  if (cache != nullptr) return *cache;
  auto fresh = std::make_unique<CodeCache>();
  fresh->code = ComputeCanonicalCode();
  fresh->hash = HashBytes(fresh->code);
  CodeCache* expected = nullptr;
  if (cache_.compare_exchange_strong(expected, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *fresh.release();
  }
  // Another thread published first; both computed identical codes, so
  // dropping ours (unique_ptr cleanup) is safe.
  return *expected;
}

void Twig::InvalidateCache() {
  // Mutators require exclusive access, so plain (relaxed) access suffices.
  CodeCache* cache = cache_.load(std::memory_order_relaxed);
  if (cache == nullptr) return;
  cache_.store(nullptr, std::memory_order_relaxed);
  delete cache;
}

int Twig::AddNode(LabelId label, int parent) {
  assert((parent == -1) == labels_.empty());
  int id = size();
  labels_.push_back(label);
  parents_.push_back(parent);
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<size_t>(parent)].push_back(id);
  InvalidateCache();
  return id;
}

std::vector<int> Twig::RemovableNodes() const {
  std::vector<int> out;
  if (size() <= 1) return out;  // a single node cannot be removed
  for (int i = 0; i < size(); ++i) {
    if (IsLeaf(i)) {
      out.push_back(i);
    } else if (i == root() && children(i).size() == 1) {
      out.push_back(i);
    }
  }
  return out;
}

Result<Twig> Twig::RemoveNode(int i, std::vector<int>* old_to_new) const {
  if (i < 0 || i >= size()) {
    return Status::InvalidArgument("RemoveNode: index out of range");
  }
  if (size() <= 1) {
    return Status::InvalidArgument("RemoveNode: twig too small");
  }
  const bool is_root = (i == root());
  if (is_root) {
    if (children(i).size() != 1) {
      return Status::InvalidArgument(
          "RemoveNode: root with more than one child is not removable");
    }
  } else if (!IsLeaf(i)) {
    return Status::InvalidArgument("RemoveNode: interior node not removable");
  }

  std::vector<int> map_storage;
  std::vector<int>& map = old_to_new != nullptr ? *old_to_new : map_storage;
  map.assign(static_cast<size_t>(size()), -1);
  Twig out;
  for (int n : PreorderNodes()) {
    if (n == i) continue;
    int p = parent(n);
    int new_parent = (p == -1 || p == i) ? -1 : map[static_cast<size_t>(p)];
    map[static_cast<size_t>(n)] = out.AddNode(label(n), new_parent);
  }
  return out;
}

std::vector<int> Twig::PreorderNodes() const {
  std::vector<int> order;
  if (empty()) return order;
  order.reserve(static_cast<size_t>(size()));
  std::vector<int> stack = {root()};
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    order.push_back(n);
    const std::vector<int>& kids = children(n);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

Result<Twig> Twig::InducedSubtree(const std::vector<int>& nodes) const {
  if (nodes.empty()) {
    return Status::InvalidArgument("InducedSubtree: empty node set");
  }
  std::vector<bool> in_set(static_cast<size_t>(size()), false);
  for (int n : nodes) {
    if (n < 0 || n >= size()) {
      return Status::InvalidArgument("InducedSubtree: index out of range");
    }
    in_set[static_cast<size_t>(n)] = true;
  }
  std::vector<int> map(static_cast<size_t>(size()), -1);
  Twig out;
  int top_count = 0;
  for (int n : PreorderNodes()) {
    if (!in_set[static_cast<size_t>(n)]) continue;
    int p = parent(n);
    int new_parent = -1;
    if (p != -1 && in_set[static_cast<size_t>(p)]) {
      new_parent = map[static_cast<size_t>(p)];
    } else {
      ++top_count;
      if (top_count > 1) {
        return Status::InvalidArgument("InducedSubtree: node set not connected");
      }
    }
    map[static_cast<size_t>(n)] = out.AddNode(label(n), new_parent);
  }
  return out;
}

int Twig::Depth(int i) const {
  int d = 0;
  for (int n = i; parent(n) != -1; n = parent(n)) ++d;
  return d;
}

bool Twig::IsPath() const {
  for (int i = 0; i < size(); ++i) {
    if (children(i).size() > 1) return false;
  }
  return true;
}

const std::string& Twig::CanonicalCode() const { return EnsureCache().code; }

uint64_t Twig::CanonicalHash() const { return EnsureCache().hash; }

std::string Twig::ComputeCanonicalCode() const {
  std::string code;
  if (empty()) return code;
  thread_local CodeScratch scratch;
  thread_local std::vector<uint64_t> all;
  all.assign(NodeSetWords(size()), ~uint64_t{0});
  SubsetCode(all, &scratch, &code);
  return code;
}

namespace {

/// Writes `label` in decimal, as std::to_string does, at `out`; returns
/// the end of what it wrote.
char* WriteLabel(LabelId label, char* out) {
  char digits[16];
  char* end = std::to_chars(digits, digits + sizeof(digits), label).ptr;
  return std::copy(digits, end, out);
}

size_t LabelLength(LabelId label) {
  char digits[16];
  return static_cast<size_t>(WriteLabel(label, digits) - digits);
}

/// Writes the code of `node`'s subtree, as SubsetCode laid it out in `s`,
/// at `out`; returns the end of what it wrote.
char* WriteCode(const LabelId* labels, int node, const CodeScratch& s,
                char* out) {
  size_t open = 0;  // single-child chain links still to close
  for (;;) {
    const size_t at = static_cast<size_t>(node);
    out = WriteLabel(labels[at], out);
    const uint32_t begin = s.kid_begin[at];
    const uint32_t end = s.kid_end[at];
    if (begin == end) break;
    *out++ = '(';
    if (end - begin == 1) {
      ++open;
      node = s.kids[begin];
      continue;
    }
    for (uint32_t k = begin; k < end; ++k) {
      if (k > begin) *out++ = ',';
      const size_t kid = static_cast<size_t>(s.kids[k]);
      out = std::copy_n(s.codes.data() + s.offset[kid], s.length[kid], out);
    }
    *out++ = ')';
    break;
  }
  return std::fill_n(out, open, ')');
}

}  // namespace

void Twig::SubsetCode(std::span<const uint64_t> nodes, CodeScratch* scratch,
                      std::string* out) const {
  static obs::Counter* const codes = obs::MetricsRegistry::Default()->counter(
      obs::metric_names::kTwigCanonicalCodes);
  codes->Increment();
  const uint64_t* set = nodes.data();
  // The topmost node is the one whose parent is outside the subset.
  int top = 0;
  while (!NodeSetHas(set, top) ||
         (parents_[static_cast<size_t>(top)] != -1 &&
          NodeSetHas(set, parents_[static_cast<size_t>(top)]))) {
    ++top;
  }
  CodeScratch& s = *scratch;
  const size_t n = labels_.size();
  if (s.length.size() < n) {
    s.kid_begin.resize(n);
    s.kid_end.resize(n);
    s.length.resize(n);
    s.offset.resize(n);
  }
  // Breadth first from `top`: every node's children in the subset (in
  // stored order), and an order that lists parents before children.
  s.order.clear();
  s.kids.clear();
  s.order.push_back(top);
  for (size_t i = 0; i < s.order.size(); ++i) {
    const int node = s.order[i];
    s.kid_begin[static_cast<size_t>(node)] =
        static_cast<uint32_t>(s.kids.size());
    for (int child : children_[static_cast<size_t>(node)]) {
      if (!NodeSetHas(set, child)) continue;
      s.kids.push_back(child);
      s.order.push_back(child);
    }
    s.kid_end[static_cast<size_t>(node)] = static_cast<uint32_t>(s.kids.size());
  }
  // Children before parents: a node's code is its label, then its
  // children's codes in sorted order, comma-separated in parentheses. Only
  // a node with a sibling has its code stored, since only siblings are
  // compared; a parent copies stored codes and walks single-child chains.
  s.codes.clear();
  auto stored = [&s](int node) {
    return std::string_view(s.codes).substr(s.offset[static_cast<size_t>(node)],
                                            s.length[static_cast<size_t>(node)]);
  };
  for (size_t i = s.order.size(); i-- > 0;) {
    const size_t node = static_cast<size_t>(s.order[i]);
    int* first = s.kids.data() + s.kid_begin[node];
    int* last = s.kids.data() + s.kid_end[node];
    size_t length = LabelLength(labels_[node]);
    if (first != last) {
      length += static_cast<size_t>(last - first) + 1;  // parens and commas
      for (const int* kid = first; kid != last; ++kid) {
        length += s.length[static_cast<size_t>(*kid)];
      }
      if (last - first > 1) {
        std::sort(first, last,
                  [&](int a, int b) { return stored(a) < stored(b); });
      }
    }
    s.length[node] = length;
    const int parent = parents_[node];
    if (static_cast<int>(node) != top &&
        s.kid_end[static_cast<size_t>(parent)] -
                s.kid_begin[static_cast<size_t>(parent)] > 1) {
      s.offset[node] = s.codes.size();
      s.codes.resize(s.codes.size() + length);
      WriteCode(labels_.data(), static_cast<int>(node), s,
                s.codes.data() + s.offset[node]);
    }
  }
  out->resize(s.length[static_cast<size_t>(top)]);
  WriteCode(labels_.data(), top, s, out->data());
}

namespace {

/// Shared recursive-descent parser over "label(child,child,...)" where a
/// label is either an identifier (ParseText) or a decimal id (ParseCode).
struct TwigTextParser {
  std::string_view text;
  size_t pos = 0;
  LabelDict* dict;  // null => labels are decimal ids

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t')) ++pos;
  }

  Result<LabelId> ParseLabel() {
    SkipSpace();
    size_t start = pos;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '(' || c == ')' || c == ',' || c == ' ' || c == '\t') break;
      ++pos;
    }
    if (pos == start) {
      return Status::ParseError("expected label at offset " +
                                std::to_string(start));
    }
    std::string_view name = text.substr(start, pos - start);
    if (dict != nullptr) return dict->Intern(name);
    // Decimal label id (canonical-code mode). Overflow-checked: LabelId is
    // a signed 32-bit id, and a corrupt code must not trip UB on its way
    // to a ParseError.
    LabelId id = 0;
    for (char c : name) {
      if (c < '0' || c > '9') {
        return Status::ParseError("expected numeric label id, got '" +
                                  std::string(name) + "'");
      }
      int digit = c - '0';
      if (id > (std::numeric_limits<LabelId>::max() - digit) / 10) {
        return Status::ParseError("label id out of range: '" +
                                  std::string(name) + "'");
      }
      id = id * 10 + digit;
    }
    return id;
  }

  Result<Twig> Run() {
    Twig twig;
    // Iterative descent: `open` is the chain of ancestors whose '(' is
    // still unclosed, so nesting depth consumes heap, never call stack.
    std::vector<int> open;
    int parent = -1;
    bool done = false;
    while (!done) {
      LabelId label;
      TL_ASSIGN_OR_RETURN(label, ParseLabel());
      int node = twig.AddNode(label, parent);
      SkipSpace();
      if (!AtEnd() && Peek() == '(') {
        // Twig::kMaxDepth guards the recursive consumers downstream, not
        // the parse stack: a corrupt summary section holding "0(0(0(..." a
        // million parens deep fails here with a diagnostic.
        if (static_cast<int>(open.size()) >= Twig::kMaxDepth) {
          return Status::ParseError("twig nesting deeper than " +
                                    std::to_string(Twig::kMaxDepth) +
                                    " at offset " + std::to_string(pos));
        }
        ++pos;  // consume '('
        open.push_back(node);
        parent = node;
        continue;
      }
      while (!open.empty() && !AtEnd() && Peek() == ')') {
        ++pos;
        open.pop_back();
        SkipSpace();
      }
      if (open.empty()) {
        done = true;
      } else if (AtEnd()) {
        return Status::ParseError("unterminated '('");
      } else if (Peek() == ',') {
        ++pos;
        parent = open.back();
      } else {
        return Status::ParseError("expected ',' or ')' at offset " +
                                  std::to_string(pos));
      }
    }
    SkipSpace();
    if (!AtEnd()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos));
    }
    return twig;
  }
};

}  // namespace

Result<Twig> Twig::Parse(std::string_view text, LabelDict* dict) {
  if (dict == nullptr) {
    return Status::InvalidArgument("Twig::Parse: dict must not be null");
  }
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return Status::ParseError("empty twig text");
  TwigTextParser parser{trimmed, 0, dict};
  return parser.Run();
}

Result<Twig> Twig::FromCanonicalCode(std::string_view code) {
  if (code.empty()) return Status::ParseError("empty canonical code");
  TwigTextParser parser{code, 0, nullptr};
  return parser.Run();
}

Twig Twig::Canonicalized() const {
  if (empty()) return Twig();
  // Reconstruct from the canonical code: guaranteed canonical preorder.
  Result<Twig> result = FromCanonicalCode(CanonicalCode());
  assert(result.ok());
  return std::move(result).value();
}

std::string Twig::ToString(const LabelDict& dict) const {
  if (empty()) return "()";
  std::string out;
  // Iterative rendering in stored child order (not canonicalized).
  struct Frame {
    int node;
    size_t next_child;
  };
  std::vector<Frame> stack = {{root(), 0}};
  out.append(dict.Name(label(root())));
  while (!stack.empty()) {
    Frame& top = stack.back();
    const std::vector<int>& kids = children(top.node);
    if (top.next_child < kids.size()) {
      out.push_back(top.next_child == 0 ? '(' : ',');
      int child = kids[top.next_child++];
      out.append(dict.Name(label(child)));
      stack.push_back({child, 0});
    } else {
      if (!kids.empty()) out.push_back(')');
      stack.pop_back();
    }
  }
  return out;
}

std::string Twig::ToDebugString() const { return CanonicalCode(); }

}  // namespace treelattice
