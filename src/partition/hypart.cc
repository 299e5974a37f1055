#include "partition/hypart.h"

#include <algorithm>
#include <iterator>

#include "common/bitmap.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "partition/balance.h"

namespace dcer {

Partition HyPart(const Dataset& dataset, const RuleSet& rules,
                 const HyPartOptions& options) {
  Timer timer;
  const int n = options.num_workers;
  // Virtual blocks: n² cells (capped), LPT-balanced onto n workers. Each
  // cell of each rule's grid stays intact, preserving Lemma 6.
  const int m = options.use_virtual_blocks ? std::min(n * n, 4096) : n;

  Partition out;
  MqoPlan plan = AssignHash(rules, options.use_mqo);
  HashEvaluator hasher;

  // Pass 1: distribute each rule into its own cell array (the per-rule
  // Hypercube); cells with the same index across rules form one virtual
  // block. With MQO-shared hash functions, rules sharing predicates send
  // tuples to the same cells, so blocks (and later indices) overlap. A cell
  // keeps the rows sent for each variable (its role rows) and, per
  // relation, their union (the rows its view and indices cover).
  struct Cell {
    std::vector<std::vector<uint32_t>> role_rows;  // [var]
    std::vector<std::vector<uint32_t>> rows;       // [relation], the union
    uint64_t size = 0;                             // Σ |rows[rel]|
  };
  std::vector<std::vector<Cell>> rule_cells(rules.size());
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules.rule(ri);
    std::vector<std::vector<std::vector<uint32_t>>> roles(
        m, std::vector<std::vector<uint32_t>>(rule.num_vars()));
    HypercubeGrid grid =
        HypercubeGrid::Build(dataset, rule, plan.rules[ri], m);
    out.stats.generated_tuples +=
        DistributeRule(dataset, rule, plan.rules[ri], grid, &hasher, &roles);
    rule_cells[ri].resize(m);
    std::vector<uint32_t> merged;
    for (int c = 0; c < m; ++c) {
      Cell& cell = rule_cells[ri][c];
      cell.rows.resize(dataset.num_relations());
      // Role lists are ascending, so each relation's union is a merge.
      for (size_t q = 0; q < rule.num_vars(); ++q) {
        auto& rel_rows = cell.rows[rule.var_relation(static_cast<int>(q))];
        const auto& role = roles[c][q];
        merged.clear();
        std::set_union(rel_rows.begin(), rel_rows.end(), role.begin(),
                       role.end(), std::back_inserter(merged));
        rel_rows.swap(merged);
      }
      for (const auto& rel_rows : cell.rows) cell.size += rel_rows.size();
      cell.role_rows = std::move(roles[c]);
    }
  }

  // Relations no rule mentions cannot join anything: spread them evenly.
  // They ride along in block `gid % m` outside any rule view.
  std::vector<std::vector<Gid>> stray(m);
  std::vector<bool> covered(dataset.num_relations(), false);
  for (const Rule& r : rules.rules()) {
    for (int rel : r.var_relations()) covered[rel] = true;
  }
  for (size_t rel = 0; rel < dataset.num_relations(); ++rel) {
    if (covered[rel]) continue;
    const Relation& relation = dataset.relation(rel);
    for (size_t row = 0; row < relation.num_rows(); ++row) {
      stray[relation.gid(row) % m].push_back(relation.gid(row));
    }
  }

  // Block sizes (pre-dedup across rules: a block's load is the join work of
  // every rule's cell in it).
  std::vector<uint64_t> block_sizes(m, 0);
  for (int c = 0; c < m; ++c) {
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      block_sizes[c] += rule_cells[ri][c].size;
    }
    block_sizes[c] += stray[c].size();
  }

  // Assign blocks to workers (LPT when balancing; round-robin otherwise).
  std::vector<int> assignment;
  if (options.use_virtual_blocks) {
    assignment = BalanceBlocks(block_sizes, n);
  } else {
    assignment.resize(m);
    for (int c = 0; c < m; ++c) assignment[c] = c % n;
  }
  out.stats.skew = LoadSkew(block_sizes, assignment, n);
  if (obs::MetricsEnabled()) {
    // Block sizes and LPT placement are pure functions of the input, so
    // these land in the deterministic section of the registry.
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    obs::Histogram* sizes = reg.GetHistogram("hypart.block_size");
    for (uint64_t s : block_sizes) sizes->Record(s);
    // A "rebalance move" is a block LPT placed somewhere other than where
    // plain round-robin striping would have put it.
    uint64_t moves = 0;
    for (int c = 0; c < m; ++c) {
      if (assignment[c] != c % n) ++moves;
    }
    reg.GetCounter("hypart.lpt_moves")->Add(moves);
    reg.GetCounter("hypart.blocks")->Add(static_cast<uint64_t>(m));
  }

  // Pass 2: materialize per-(worker, rule) blocks plus the union fragment.
  // Each non-empty cell of each rule becomes one evaluation scope on the
  // worker its block was assigned to; its role lists become the block's
  // role bitmaps.
  out.rule_blocks.assign(n, {});
  std::vector<Bitmap> hosted(n, Bitmap(dataset.num_tuples()));
  for (int w = 0; w < n; ++w) out.rule_blocks[w].resize(rules.size());
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    for (int c = 0; c < m; ++c) {
      Cell& cell = rule_cells[ri][c];
      if (cell.size == 0) continue;
      const int w = assignment[c];
      for (size_t rel = 0; rel < cell.rows.size(); ++rel) {
        const Relation& relation = dataset.relation(rel);
        for (uint32_t row : cell.rows[rel]) hosted[w].Set(relation.gid(row));
      }
      RuleBlock& block = out.rule_blocks[w][ri].emplace_back();
      const Rule& rule = rules.rule(ri);
      for (size_t q = 0; q < rule.num_vars(); ++q) {
        const int rel = rule.var_relation(static_cast<int>(q));
        Bitmap& role =
            block.roles.emplace_back(dataset.relation(rel).num_rows());
        for (uint32_t row : cell.role_rows[q]) role.Set(row);
      }
      block.view = DatasetView(&dataset, std::move(cell.rows));
    }
    rule_cells[ri].clear();
    rule_cells[ri].shrink_to_fit();
  }
  for (int c = 0; c < m; ++c) {
    for (Gid gid : stray[c]) hosted[assignment[c]].Set(gid);
  }

  // Fragments in gid order, so each relation's rows ascend.
  out.hosts.assign(dataset.num_tuples(), {});
  out.fragments.reserve(n);
  for (int w = 0; w < n; ++w) {
    std::vector<std::vector<uint32_t>> rows(dataset.num_relations());
    for (Gid gid = 0; gid < dataset.num_tuples(); ++gid) {
      if (!hosted[w].Test(gid)) continue;
      rows[dataset.loc(gid).relation].push_back(dataset.loc(gid).row);
      out.hosts[gid].push_back(static_cast<uint32_t>(w));
    }
    out.stats.fragment_tuples += hosted[w].count();
    out.fragments.emplace_back(&dataset, std::move(rows));
  }

  out.stats.hash_computations = hasher.num_computations();
  out.stats.hash_cache_hits = hasher.num_hits();
  out.stats.num_hash_functions = plan.num_hash_functions;
  out.stats.replication_factor =
      dataset.num_tuples() == 0
          ? 0
          : static_cast<double>(out.stats.fragment_tuples) /
                static_cast<double>(dataset.num_tuples());
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace dcer
