#include "src/core/provenance.h"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/obs/metrics.h"

namespace lrpdb {
namespace {

const std::vector<ProvRef>& NoDependents() {
  static const std::vector<ProvRef> kEmpty;
  return kEmpty;
}

// Retained-byte estimates behind approx_bytes(): an origin with its parent
// vector, and one reverse edge.
int64_t OriginBytes(const DerivationOrigin& origin) {
  return static_cast<int64_t>(sizeof(DerivationOrigin) +
                              origin.parents.size() * sizeof(ProvRef));
}
constexpr int64_t kEdgeBytes = sizeof(ProvRef);

bool HoldsOrigin(const DerivationOrigin& origin) {
  return origin.rule != kProvBaseFact;
}

// True when parents[k] already appeared earlier in `parents`: an entry
// matched by several body atoms gets one reverse edge per dependent.
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
  dependents_.emplace_back();
  return id;
}

std::optional<ProvRelationId> ProvenanceLog::FindRelation(
    const std::string& name) const {
  auto it = relation_ids_.find(name);
  if (it == relation_ids_.end()) return std::nullopt;
  return it->second;
}

[[nodiscard]] Status ProvenanceLog::Record(ProvRef derived, DerivationOrigin origin) {
  LRPDB_FAILPOINT("provenance.record");
  if (derived.relation >= origins_.size()) {
    return InvalidArgumentError("provenance: record for unknown relation id " +
                                std::to_string(derived.relation));
  }
  if (!HoldsOrigin(origin)) {
    return InvalidArgumentError("provenance: an EDB leaf has no origin");
  }
  if (Origin(derived) != nullptr) {
    return InvalidArgumentError(
        "provenance: " + RelationName(derived.relation) + "#" +
        std::to_string(derived.entry) + " already has an origin");
  }
  int64_t edges = 0;
  for (size_t k = 0; k < origin.parents.size(); ++k) {
    if (!RepeatsEarlierParent(origin.parents, k)) ++edges;
  }
  const int64_t bytes = OriginBytes(origin) + edges * kEdgeBytes;
  if (ExecContext* exec = ExecContext::Current(); exec != nullptr) {
    exec->ChargeBytes(bytes);
    LRPDB_RETURN_IF_ERROR(exec->Poll());
  }
  // Reverse edges, one per distinct parent.
  for (size_t k = 0; k < origin.parents.size(); ++k) {
    if (RepeatsEarlierParent(origin.parents, k)) continue;
    const ProvRef parent = origin.parents[k];
    std::vector<std::vector<ProvRef>>& deps = dependents_[parent.relation];
    if (deps.size() <= parent.entry) deps.resize(parent.entry + 1);
    deps[parent.entry].push_back(derived);
  }
  std::vector<DerivationOrigin>& rel = origins_[derived.relation];
  if (rel.size() <= derived.entry) rel.resize(derived.entry + 1);
  rel[derived.entry] = std::move(origin);
  ++records_;
  approx_bytes_ += bytes;
  LRPDB_COUNTER_INC("eval.prov.records");
  LRPDB_COUNTER_ADD("eval.prov.bytes", bytes);
  return OkStatus();
}

const DerivationOrigin* ProvenanceLog::Origin(ProvRef ref) const {
  if (ref.relation >= origins_.size()) return nullptr;
  const std::vector<DerivationOrigin>& rel = origins_[ref.relation];
  if (ref.entry >= rel.size() || !HoldsOrigin(rel[ref.entry])) return nullptr;
  return &rel[ref.entry];
}

const std::vector<ProvRef>& ProvenanceLog::Dependents(ProvRef ref) const {
  if (ref.relation >= dependents_.size()) return NoDependents();
  const std::vector<std::vector<ProvRef>>& rel = dependents_[ref.relation];
  if (ref.entry >= rel.size()) return NoDependents();
  return rel[ref.entry];
}

void ProvenanceLog::Forget(ProvRef ref) {
  if (Origin(ref) == nullptr) return;
  DerivationOrigin& origin = origins_[ref.relation][ref.entry];
  approx_bytes_ -= OriginBytes(origin);
  --records_;
  origin = DerivationOrigin();
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
  // Moves each entry's slot to its new id; `release` accounts for the slot
  // of an erased entry, which is dropped, and `held` tells a slot worth
  // moving from an empty one.
  const auto move_slots = [](const std::vector<EntryId>& remap, auto* lists,
                             const auto& held, const auto& release) {
    std::remove_reference_t<decltype(*lists)> moved;
    for (size_t id = 0; id < lists->size(); ++id) {
      auto& list = (*lists)[id];
      if (remap[id] == kErasedEntry) {
        release(list);
        continue;
      }
      if (!held(list)) continue;
      if (moved.size() <= remap[id]) moved.resize(remap[id] + 1);
      moved[remap[id]] = std::move(list);
    }
    *lists = std::move(moved);
  };
  for (size_t r = 0; r < remap_of.size(); ++r) {
    if (remap_of[r] == nullptr) continue;
    move_slots(*remap_of[r], &origins_[r], HoldsOrigin,
               [this](const DerivationOrigin& origin) {
                 if (!HoldsOrigin(origin)) return;
                 approx_bytes_ -= OriginBytes(origin);
                 --records_;
               });
    move_slots(
        *remap_of[r], &dependents_[r],
        [](const std::vector<ProvRef>& deps) { return !deps.empty(); },
        [this](const std::vector<ProvRef>& deps) {
          approx_bytes_ -= static_cast<int64_t>(deps.size()) * kEdgeBytes;
        });
  }
  // Every parent names a live entry (DRed over-deleted the dependents of
  // every erased one), so parents are rewritten, never dropped.
  for (std::vector<DerivationOrigin>& rel : origins_) {
    for (DerivationOrigin& origin : rel) {
      for (ProvRef& parent : origin.parents) parent = renumbered(parent);
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
  const auto node = [this](ProvRef ref) {
    const DerivationOrigin* origin = Origin(ref);
    return Node{ref, origin == nullptr ? std::nullopt
                                       : std::optional(*origin)};
  };
  graph.nodes.push_back(node(root));
  // BFS; every ref is enqueued at most once, so shared subtrees are
  // expanded once and any cycle terminates.
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    if (!graph.nodes[i].origin.has_value()) continue;
    // Copy the parents: push_back below may reallocate nodes.
    const std::vector<ProvRef> parents = graph.nodes[i].origin->parents;
    for (ProvRef parent : parents) {
      if (graph.index.count(parent) > 0) continue;
      graph.index.emplace(parent, graph.nodes.size());
      graph.nodes.push_back(node(parent));
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
    const DerivationOrigin* origin =
        it == graph.index.end() || !graph.nodes[it->second].origin
            ? nullptr
            : &*graph.nodes[it->second].origin;
    if (origin == nullptr) {
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
    out << indent << "  <- rule " << origin->rule << " @ round "
        << origin->round << ": " << rule_label(origin->rule) << "\n";
    for (ProvRef parent : origin->parents) {
      render(parent, depth + 2);
    }
    if (origin->parents.empty()) {
      out << indent << "    (no body atoms)\n";
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
    return std::string("t")
        .append(std::to_string(ref.relation))
        .append("_")
        .append(std::to_string(ref.entry));
  };
  for (const Node& node : graph.nodes) {
    const std::string& name = RelationName(node.ref.relation);
    out << "  " << tuple_id(node.ref) << " [shape=box, label=\""
        << DotEscape(name + "#" + std::to_string(node.ref.entry) + "\n" +
                     tuple_label(name, node.ref.entry))
        << "\"";
    if (!node.origin.has_value()) {
      out << ", style=filled, fillcolor=lightgrey";
    }
    out << "];\n";
  }
  size_t step = 0;
  for (const Node& node : graph.nodes) {
    if (!node.origin.has_value()) continue;
    const DerivationOrigin& origin = *node.origin;
    const std::string step_id =
        std::string("d").append(std::to_string(step++));
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
  out << "}\n";
  return out.str();
}

}  // namespace lrpdb
