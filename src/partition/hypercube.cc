#include "partition/hypercube.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace dcer {

uint64_t HashEvaluator::Eval(int fn, uint64_t value_hash) {
  uint64_t key = HashCombine(HashInt(static_cast<uint64_t>(fn) + 13),
                             value_hash);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++computations_;
  // Each h_i is an independently seeded mix of the value.
  uint64_t h = HashInt(value_hash, static_cast<uint64_t>(fn) * 0x9E37 + 1);
  cache_.emplace(key, h);
  return h;
}

namespace {

std::vector<int> PrimeFactors(int n) {
  std::vector<int> out;
  for (int p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      out.push_back(p);
      n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  std::sort(out.rbegin(), out.rend());  // biggest factors placed first
  return out;
}

// Total replication cost of the current sizes: every tuple of variable q is
// copied once per coordinate combination of the dimensions q broadcasts on.
double ReplicationCost(const Dataset& dataset, const Rule& rule,
                       const RulePlan& plan, const std::vector<int>& sizes) {
  double total = 0;
  for (size_t q = 0; q < rule.num_vars(); ++q) {
    double copies = 1;
    for (size_t d = 0; d < plan.dims.size(); ++d) {
      if (!plan.dims[d].Touches(static_cast<int>(q))) copies *= sizes[d];
    }
    total += copies *
             static_cast<double>(
                 dataset.relation(rule.var_relation(static_cast<int>(q)))
                     .num_rows());
  }
  return total;
}

}  // namespace

HypercubeGrid HypercubeGrid::Build(const Dataset& dataset, const Rule& rule,
                                   const RulePlan& plan, int num_cells) {
  HypercubeGrid grid;
  grid.dim_sizes.assign(plan.dims.size(), 1);
  if (plan.dims.empty()) {
    // Degenerate rule (e.g., constants only): a single cell.
    grid.num_cells = 1;
    return grid;
  }
  grid.num_cells = 1;
  for (int p : PrimeFactors(num_cells)) {
    // Greedily grow the dimension that keeps replication cheapest.
    int best_dim = 0;
    double best_cost = -1;
    for (size_t d = 0; d < plan.dims.size(); ++d) {
      std::vector<int> trial = grid.dim_sizes;
      trial[d] *= p;
      double cost = ReplicationCost(dataset, rule, plan, trial);
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best_dim = static_cast<int>(d);
      }
    }
    grid.dim_sizes[best_dim] *= p;
    grid.num_cells *= p;
  }
  return grid;
}

uint64_t DistributeRule(
    const Dataset& dataset, const Rule& rule, const RulePlan& plan,
    const HypercubeGrid& grid, HashEvaluator* hasher,
    std::vector<std::vector<std::vector<uint32_t>>>* cells) {
  assert(cells->size() >= static_cast<size_t>(grid.num_cells));
  const size_t ndims = plan.dims.size();
  uint64_t generated = 0;

  // Mixed-radix strides for cell ids.
  std::vector<int> stride(ndims, 1);
  for (size_t d = 1; d < ndims; ++d) {
    stride[d] = stride[d - 1] * grid.dim_sizes[d - 1];
  }

  std::vector<int> coord(ndims);  // -1 = broadcast
  for (size_t q = 0; q < rule.num_vars(); ++q) {
    const int rel = rule.var_relation(static_cast<int>(q));
    const Relation& relation = dataset.relation(rel);
    for (size_t row = 0; row < relation.num_rows(); ++row) {
      Gid gid = relation.gid(row);
      // Coordinates for this tuple variable.
      for (size_t d = 0; d < ndims; ++d) {
        coord[d] = -1;
        if (grid.dim_sizes[d] == 1) {
          coord[d] = 0;
          continue;
        }
        const DistinctVar& dv = plan.dims[d];
        for (const Occurrence& o : dv.occs) {
          if (o.var != static_cast<int>(q)) continue;
          uint64_t vh = 0;
          bool broadcast = false;
          switch (o.kind) {
            case Occurrence::Kind::kAttr: {
              const Value& v = relation.at(row, o.attr);
              if (v.is_null()) {
                broadcast = true;  // NULL never joins; keep the tuple usable
              } else {
                vh = v.Hash();
              }
              break;
            }
            case Occurrence::Kind::kId:
              vh = HashInt(gid);
              break;
            case Occurrence::Kind::kMlSide: {
              uint64_t h = HashInt(0x3u);
              for (int a : o.ml_attrs) {
                h = HashCombine(h, relation.at(row, a).Hash());
              }
              vh = h;
              break;
            }
          }
          if (!broadcast) {
            coord[d] = static_cast<int>(hasher->Eval(dv.hash_fn, vh) %
                                        grid.dim_sizes[d]);
          }
          break;  // first occurrence of q in this dimension decides
        }
      }
      // Emit the tuple to every cell matching the coordinate pattern.
      std::vector<size_t> bcast_dims;
      uint64_t base = 0;
      for (size_t d = 0; d < ndims; ++d) {
        if (coord[d] < 0) {
          bcast_dims.push_back(d);
        } else {
          base += static_cast<uint64_t>(coord[d]) * stride[d];
        }
      }
      uint64_t combos = 1;
      for (size_t d : bcast_dims) combos *= grid.dim_sizes[d];
      for (uint64_t c = 0; c < combos; ++c) {
        uint64_t cell = base;
        uint64_t rest = c;
        for (size_t d : bcast_dims) {
          cell += (rest % grid.dim_sizes[d]) * stride[d];
          rest /= grid.dim_sizes[d];
        }
        (*cells)[cell][q].push_back(static_cast<uint32_t>(row));
        ++generated;
      }
    }
  }
  return generated;
}

}  // namespace dcer
