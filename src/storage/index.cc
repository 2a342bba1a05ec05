#include "storage/index.h"

#include <algorithm>

#include "util/fault_injector.h"
#include "util/string_util.h"

namespace asqp {
namespace storage {

IndexBound IndexBound::Equal(Value v) {
  IndexBound bound;
  bound.has_lower = bound.has_upper = true;
  bound.lower = v;
  bound.upper = std::move(v);
  return bound;
}

util::Result<OrderedIndex> OrderedIndex::Build(const DatabaseView& view,
                                               const Table& table,
                                               int column) {
  if (column < 0 || static_cast<size_t>(column) >= table.num_columns()) {
    return util::Status::InvalidArgument(
        util::Format("index build: %s has no column %d", table.name().c_str(),
                     column));
  }
  if (ASQP_FAULT_POINT("index.build")) {
    return util::Status::ResourceExhausted(util::Format(
        "injected fault(index.build): ordered index over %s.%s failed",
        table.name().c_str(),
        table.schema().field(static_cast<size_t>(column)).name.c_str()));
  }
  OrderedIndex index;
  index.table_ = table.name();
  index.column_ = column;
  const Column& col = table.column(static_cast<size_t>(column));
  const size_t visible = view.VisibleRows(table);
  index.keys_.reserve(visible);
  index.ordinals_.reserve(visible);
  for (size_t ord = 0; ord < visible; ++ord) {
    const uint32_t row = view.PhysicalRow(table, ord);
    Value v = col.ValueAt(row);
    if (v.is_null()) continue;  // comparisons never match NULL
    index.keys_.push_back(std::move(v));
    index.ordinals_.push_back(static_cast<uint32_t>(ord));
  }
  // Sort the permutation by (value, ordinal). keys_ arrives in ordinal
  // order, so a stable value sort of the positions yields ordinal-ordered
  // ties — deterministic for any input.
  std::vector<uint32_t> perm(index.ordinals_.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return index.keys_[a].Compare(index.keys_[b]) < 0;
  });
  std::vector<Value> keys;
  std::vector<uint32_t> ordinals;
  keys.reserve(perm.size());
  ordinals.reserve(perm.size());
  for (uint32_t p : perm) {
    keys.push_back(std::move(index.keys_[p]));
    ordinals.push_back(index.ordinals_[p]);
  }
  index.keys_ = std::move(keys);
  index.ordinals_ = std::move(ordinals);
  return index;
}

std::vector<uint32_t> OrderedIndex::LookupRange(const IndexBound& bound) const {
  const auto less = [](const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  };
  auto lo = keys_.begin();
  auto hi = keys_.end();
  if (bound.has_lower) {
    lo = bound.lower_inclusive
             ? std::lower_bound(keys_.begin(), keys_.end(), bound.lower, less)
             : std::upper_bound(keys_.begin(), keys_.end(), bound.lower, less);
  }
  if (bound.has_upper) {
    hi = bound.upper_inclusive
             ? std::upper_bound(keys_.begin(), keys_.end(), bound.upper, less)
             : std::lower_bound(keys_.begin(), keys_.end(), bound.upper, less);
  }
  if (lo >= hi) return {};
  std::vector<uint32_t> out(ordinals_.begin() + (lo - keys_.begin()),
                            ordinals_.begin() + (hi - keys_.begin()));
  // Candidates must come out in scan order (ascending ordinal), not value
  // order — that is what makes the consumer's output byte-identical to a
  // sequential full scan.
  std::sort(out.begin(), out.end());
  return out;
}

IndexCatalog IndexCatalog::Build(const DatabaseView& view,
                                 const std::vector<IndexColumnSpec>& columns,
                                 uint64_t generation) {
  IndexCatalog catalog;
  catalog.db_ = &view.db();
  catalog.subset_ = view.subset();
  catalog.generation_ = generation;
  for (const IndexColumnSpec& spec : columns) {
    auto table = view.db().GetTable(spec.table);
    if (!table.ok()) {
      ++catalog.failed_;
      continue;
    }
    util::Result<OrderedIndex> built =
        OrderedIndex::Build(view, *table.value(), spec.column);
    if (!built.ok()) {
      // Degrade, never break: the column stays unindexed and every query
      // over it takes the full-scan path.
      ++catalog.failed_;
      continue;
    }
    catalog.indexes_.emplace(std::make_pair(spec.table, spec.column),
                             std::move(built).value());
  }
  return catalog;
}

const OrderedIndex* IndexCatalog::Find(const std::string& table,
                                       int column) const {
  const auto it = indexes_.find(std::make_pair(table, column));
  return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<IndexColumnSpec> AllIndexColumns(const Database& db) {
  std::vector<IndexColumnSpec> out;
  for (const std::string& name : db.TableNames()) {
    auto table = db.GetTable(name);
    if (!table.ok()) continue;
    for (size_t c = 0; c < table.value()->num_columns(); ++c) {
      out.push_back({name, static_cast<int>(c)});
    }
  }
  return out;
}

}  // namespace storage
}  // namespace asqp
