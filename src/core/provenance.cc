#include "src/core/provenance.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <type_traits>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/obs/metrics.h"

namespace lrpdb {
namespace {

const std::vector<DerivationOrigin>& NoOrigins() {
  static const std::vector<DerivationOrigin> kEmpty;
  return kEmpty;
}

const std::vector<ProvRef>& NoDependents() {
  static const std::vector<ProvRef> kEmpty;
  return kEmpty;
}

// Retained-byte estimates behind approx_bytes(): an origin with its parent
// vector, one reverse edge, and an origin's share of its duplicate index
// (two 8-byte slots, the table being at most half full).
int64_t OriginBytes(const DerivationOrigin& origin) {
  return static_cast<int64_t>(sizeof(DerivationOrigin) +
                              origin.parents.size() * sizeof(ProvRef));
}
constexpr int64_t kEdgeBytes = sizeof(ProvRef);
constexpr int64_t kIndexEntryBytes = 2 * sizeof(uint64_t);

// Duplicate-index slots: (entry id, origin position) packed into 64 bits.
constexpr uint64_t kFreeSlot = ~uint64_t{0};
uint64_t PackSlot(EntryId entry, uint32_t position) {
  return (uint64_t{entry} << 32) | position;
}
EntryId SlotEntry(uint64_t slot) { return static_cast<EntryId>(slot >> 32); }
uint32_t SlotPosition(uint64_t slot) { return static_cast<uint32_t>(slot); }

// Hash of (entry, rule, parents), finalized so the low bits the table
// masks with depend on every input.
size_t OriginHash(EntryId entry, const DerivationOrigin& origin) {
  uint64_t h = HashCombine(entry, static_cast<uint32_t>(origin.rule));
  for (ProvRef parent : origin.parents) {
    h = HashCombine(h, parent.relation);
    h = HashCombine(h, parent.entry);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h);
}

// True when parents[k] already appeared earlier in `parents`: an entry
// matched by several body atoms gets one reverse edge per origin.
bool RepeatsEarlierParent(const std::vector<ProvRef>& parents, size_t k) {
  for (size_t j = 0; j < k; ++j) {
    if (parents[j] == parents[k]) return true;
  }
  return false;
}

// Escapes `text` for use inside a double-quoted DOT string.
std::string DotEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

ProvRelationId ProvenanceLog::InternRelation(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  ProvRelationId id = static_cast<ProvRelationId>(relation_names_.size());
  relation_names_.push_back(name);
  relation_ids_.emplace(name, id);
  origins_.emplace_back();
  origin_index_.emplace_back();
  dependents_.emplace_back();
  return id;
}

std::optional<ProvRelationId> ProvenanceLog::FindRelation(
    const std::string& name) const {
  auto it = relation_ids_.find(name);
  if (it == relation_ids_.end()) return std::nullopt;
  return it->second;
}

size_t ProvenanceLog::OriginIndex::Find(const RelationOrigins& origins,
                                        EntryId entry,
                                        const DerivationOrigin& origin) const {
  const size_t mask = slots.size() - 1;
  size_t i = OriginHash(entry, origin) & mask;
  // At most half full, so the probe always meets a free slot.
  while (slots[i] != kFreeSlot) {
    const uint64_t slot = slots[i];
    if (SlotEntry(slot) == entry) {
      const DerivationOrigin& held = origins[entry][SlotPosition(slot)];
      if (held.rule == origin.rule && held.parents == origin.parents) {
        return i;
      }
    }
    i = (i + 1) & mask;
  }
  return i;
}

void ProvenanceLog::OriginIndex::Insert(const RelationOrigins& origins,
                                        EntryId entry, uint32_t position) {
  const auto place = [&](uint64_t slot) {
    const size_t mask = slots.size() - 1;
    const DerivationOrigin& origin =
        origins[SlotEntry(slot)][SlotPosition(slot)];
    size_t i = OriginHash(SlotEntry(slot), origin) & mask;
    while (slots[i] != kFreeSlot) i = (i + 1) & mask;
    slots[i] = slot;
  };
  if ((used + 1) * 2 > slots.size()) {
    std::vector<uint64_t> old(std::max<size_t>(16, slots.size() * 2),
                              kFreeSlot);
    old.swap(slots);
    for (uint64_t slot : old) {
      if (slot != kFreeSlot) place(slot);
    }
  }
  place(PackSlot(entry, position));
  ++used;
}

void ProvenanceLog::OriginIndex::Erase(const RelationOrigins& origins,
                                       EntryId entry, uint32_t position) {
  const size_t mask = slots.size() - 1;
  const auto home = [&](uint64_t slot) {
    return OriginHash(SlotEntry(slot),
                      origins[SlotEntry(slot)][SlotPosition(slot)]) &
           mask;
  };
  const uint64_t target = PackSlot(entry, position);
  size_t hole = home(target);
  while (slots[hole] != target) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later slot of the probe run into the
  // hole unless that would move it before its home position.
  for (size_t j = (hole + 1) & mask; slots[j] != kFreeSlot;
       j = (j + 1) & mask) {
    if (((j - home(slots[j])) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = kFreeSlot;
  --used;
}

[[nodiscard]] Status ProvenanceLog::Record(ProvRef derived, DerivationOrigin origin) {
  LRPDB_FAILPOINT("provenance.record");
  if (derived.relation >= origins_.size()) {
    return InvalidArgumentError("provenance: record for unknown relation id " +
                                std::to_string(derived.relation));
  }
  RelationOrigins& rel = origins_[derived.relation];
  OriginIndex& index = origin_index_[derived.relation];
  if (index.used > 0 &&
      index.slots[index.Find(rel, derived.entry, origin)] != kFreeSlot) {
    LRPDB_COUNTER_INC("eval.prov.deduped");
    return OkStatus();
  }
  int64_t edges = 0;
  for (size_t k = 0; k < origin.parents.size(); ++k) {
    if (!RepeatsEarlierParent(origin.parents, k)) ++edges;
  }
  const int64_t bytes =
      OriginBytes(origin) + edges * kEdgeBytes + kIndexEntryBytes;
  if (ExecContext* exec = ExecContext::Current(); exec != nullptr) {
    exec->ChargeBytes(bytes);
    LRPDB_RETURN_IF_ERROR(exec->Poll());
  }
  // Reverse edges, one per distinct parent of this origin. Distinct origins
  // of one entry sharing a parent each add an edge; consumers dedupe.
  for (size_t k = 0; k < origin.parents.size(); ++k) {
    if (RepeatsEarlierParent(origin.parents, k)) continue;
    const ProvRef parent = origin.parents[k];
    std::vector<std::vector<ProvRef>>& deps = dependents_[parent.relation];
    if (deps.size() <= parent.entry) deps.resize(parent.entry + 1);
    deps[parent.entry].push_back(derived);
  }
  if (rel.size() <= derived.entry) rel.resize(derived.entry + 1);
  std::vector<DerivationOrigin>& origins = rel[derived.entry];
  origins.push_back(std::move(origin));
  index.Insert(rel, derived.entry, static_cast<uint32_t>(origins.size() - 1));
  ++records_;
  approx_bytes_ += bytes;
  LRPDB_COUNTER_INC("eval.prov.records");
  LRPDB_COUNTER_ADD("eval.prov.bytes", bytes);
  return OkStatus();
}

const std::vector<DerivationOrigin>& ProvenanceLog::Origins(
    ProvRef ref) const {
  if (ref.relation >= origins_.size()) return NoOrigins();
  const std::vector<std::vector<DerivationOrigin>>& rel =
      origins_[ref.relation];
  if (ref.entry >= rel.size()) return NoOrigins();
  return rel[ref.entry];
}

const std::vector<ProvRef>& ProvenanceLog::Dependents(ProvRef ref) const {
  if (ref.relation >= dependents_.size()) return NoDependents();
  const std::vector<std::vector<ProvRef>>& rel = dependents_[ref.relation];
  if (ref.entry >= rel.size()) return NoDependents();
  return rel[ref.entry];
}

void ProvenanceLog::Forget(ProvRef ref) {
  if (ref.relation >= origins_.size()) return;
  RelationOrigins& rel = origins_[ref.relation];
  if (ref.entry >= rel.size()) return;
  std::vector<DerivationOrigin>& origins = rel[ref.entry];
  // Unindex every origin before releasing any: the index reads the origins
  // of the slots it shifts.
  for (size_t i = 0; i < origins.size(); ++i) {
    origin_index_[ref.relation].Erase(rel, ref.entry,
                                      static_cast<uint32_t>(i));
    approx_bytes_ -= OriginBytes(origins[i]) + kIndexEntryBytes;
  }
  records_ -= static_cast<int64_t>(origins.size());
  std::vector<DerivationOrigin>().swap(origins);
}

void ProvenanceLog::ForgetDependents(ProvRef ref) {
  if (ref.relation >= dependents_.size()) return;
  std::vector<std::vector<ProvRef>>& rel = dependents_[ref.relation];
  if (ref.entry >= rel.size()) return;
  approx_bytes_ -= static_cast<int64_t>(rel[ref.entry].size()) * kEdgeBytes;
  std::vector<ProvRef>().swap(rel[ref.entry]);
}

void ProvenanceLog::Renumber(
    const std::map<std::string, std::vector<EntryId>>& remaps) {
  // remap_of[relation]: that relation's remap, or nullptr when its ids stay.
  std::vector<const std::vector<EntryId>*> remap_of(relation_names_.size(),
                                                    nullptr);
  for (const auto& [name, remap] : remaps) {
    if (std::optional<ProvRelationId> rel = FindRelation(name)) {
      remap_of[*rel] = &remap;
    }
  }
  const auto renumbered = [&](ProvRef ref) {
    if (const std::vector<EntryId>* remap = remap_of[ref.relation]) {
      ref.entry = (*remap)[ref.entry];
    }
    return ref;
  };
  // Moves each entry's list to its new id; `release` accounts for the list
  // of an erased entry, which is dropped.
  const auto move_lists = [](const std::vector<EntryId>& remap, auto* lists,
                             const auto& release) {
    std::remove_reference_t<decltype(*lists)> moved;
    for (size_t id = 0; id < lists->size(); ++id) {
      auto& list = (*lists)[id];
      if (remap[id] == kErasedEntry) {
        release(list);
        continue;
      }
      if (list.empty()) continue;
      if (moved.size() <= remap[id]) moved.resize(remap[id] + 1);
      moved[remap[id]] = std::move(list);
    }
    *lists = std::move(moved);
  };
  for (size_t r = 0; r < remap_of.size(); ++r) {
    if (remap_of[r] == nullptr) continue;
    move_lists(*remap_of[r], &origins_[r],
               [this](const std::vector<DerivationOrigin>& origins) {
                 for (const DerivationOrigin& origin : origins) {
                   approx_bytes_ -= OriginBytes(origin) + kIndexEntryBytes;
                 }
                 records_ -= static_cast<int64_t>(origins.size());
               });
    move_lists(*remap_of[r], &dependents_[r],
               [this](const std::vector<ProvRef>& deps) {
                 approx_bytes_ -= static_cast<int64_t>(deps.size()) *
                                  kEdgeBytes;
               });
  }
  // Every parent names a live entry (DRed over-deleted the dependents of
  // every erased one), so parents are rewritten, never dropped.
  for (RelationOrigins& rel : origins_) {
    for (std::vector<DerivationOrigin>& origins : rel) {
      for (DerivationOrigin& origin : origins) {
        for (ProvRef& parent : origin.parents) parent = renumbered(parent);
      }
    }
  }
  for (std::vector<std::vector<ProvRef>>& rel : dependents_) {
    for (std::vector<ProvRef>& deps : rel) {
      size_t kept = 0;
      for (ProvRef dep : deps) {
        dep = renumbered(dep);
        if (dep.entry != kErasedEntry) deps[kept++] = dep;
      }
      if (kept == deps.size()) continue;
      approx_bytes_ -= static_cast<int64_t>(deps.size() - kept) * kEdgeBytes;
      deps.resize(kept);
      deps.shrink_to_fit();
    }
  }
  // The duplicate index hashes entry and parent ids: rebuild every table.
  for (size_t r = 0; r < origins_.size(); ++r) {
    origin_index_[r] = OriginIndex();
    for (size_t id = 0; id < origins_[r].size(); ++id) {
      for (size_t pos = 0; pos < origins_[r][id].size(); ++pos) {
        origin_index_[r].Insert(origins_[r], static_cast<EntryId>(id),
                                static_cast<uint32_t>(pos));
      }
    }
  }
}

[[nodiscard]] StatusOr<ProvenanceLog::Graph> ProvenanceLog::WhyProvenance(
    ProvRef root) const {
  LRPDB_FAILPOINT("provenance.lookup");
  LRPDB_COUNTER_INC("eval.prov.lookups");
  if (root.relation >= origins_.size()) {
    return InvalidArgumentError("provenance: unknown relation id " +
                                std::to_string(root.relation));
  }
  Graph graph;
  graph.index.emplace(root, 0);
  graph.nodes.push_back(Node{root, Origins(root)});
  // BFS; every ref is enqueued at most once, so recursive derivations
  // (including self-loops from absorbed candidates) terminate.
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    // Copy the origin list: push_back below may reallocate nodes.
    const std::vector<DerivationOrigin> origins = graph.nodes[i].origins;
    for (const DerivationOrigin& origin : origins) {
      for (ProvRef parent : origin.parents) {
        if (graph.index.count(parent) > 0) continue;
        graph.index.emplace(parent, graph.nodes.size());
        graph.nodes.push_back(Node{parent, Origins(parent)});
      }
    }
  }
  return graph;
}

std::string ProvenanceLog::RenderTree(const Graph& graph,
                                      const TupleLabelFn& tuple_label,
                                      const RuleLabelFn& rule_label) const {
  if (graph.nodes.empty()) return "(empty derivation graph)\n";
  std::ostringstream out;
  std::map<ProvRef, bool> expanded;

  const std::function<void(ProvRef, int)> render = [&](ProvRef ref,
                                                       int depth) {
    const std::string indent(static_cast<size_t>(depth) * 2, ' ');
    const std::string& name = RelationName(ref.relation);
    out << indent << name << "#" << ref.entry << "  "
        << tuple_label(name, ref.entry);
    auto it = graph.index.find(ref);
    const std::vector<DerivationOrigin>& origins =
        it == graph.index.end() ? NoOrigins() : graph.nodes[it->second].origins;
    if (origins.empty()) {
      out << "  [base fact]\n";
      return;
    }
    if (expanded[ref]) {
      // Already expanded above (shared subtree or recursive derivation).
      out << "  [see above]\n";
      return;
    }
    expanded[ref] = true;
    out << "\n";
    for (const DerivationOrigin& origin : origins) {
      out << indent << "  <- rule " << origin.rule << " @ round "
          << origin.round << ": " << rule_label(origin.rule) << "\n";
      for (ProvRef parent : origin.parents) {
        render(parent, depth + 2);
      }
      if (origin.parents.empty()) {
        out << indent << "    (no body atoms)\n";
      }
    }
  };
  render(graph.nodes[0].ref, 0);
  return out.str();
}

std::string ProvenanceLog::ToDot(const Graph& graph,
                                 const TupleLabelFn& tuple_label,
                                 const RuleLabelFn& rule_label) const {
  std::ostringstream out;
  out << "digraph why {\n";
  out << "  rankdir=BT;\n";
  out << "  node [fontname=\"Helvetica\", fontsize=10];\n";
  const auto tuple_id = [](ProvRef ref) {
    return "t" + std::to_string(ref.relation) + "_" +
           std::to_string(ref.entry);
  };
  for (const Node& node : graph.nodes) {
    const std::string& name = RelationName(node.ref.relation);
    out << "  " << tuple_id(node.ref) << " [shape=box, label=\""
        << DotEscape(name + "#" + std::to_string(node.ref.entry) + "\n" +
                     tuple_label(name, node.ref.entry))
        << "\"";
    if (node.origins.empty()) {
      out << ", style=filled, fillcolor=lightgrey";
    }
    out << "];\n";
  }
  size_t step = 0;
  for (const Node& node : graph.nodes) {
    for (const DerivationOrigin& origin : node.origins) {
      const std::string step_id = "d" + std::to_string(step++);
      out << "  " << step_id << " [shape=ellipse, label=\""
          << DotEscape("rule " + std::to_string(origin.rule) + " @ round " +
                       std::to_string(origin.round) + "\n" +
                       rule_label(origin.rule))
          << "\"];\n";
      out << "  " << step_id << " -> " << tuple_id(node.ref) << ";\n";
      for (ProvRef parent : origin.parents) {
        out << "  " << tuple_id(parent) << " -> " << step_id << ";\n";
      }
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace lrpdb
