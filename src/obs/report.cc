#include "obs/report.h"

#include "obs/json.h"

namespace dcer {

ChaseStats& ChaseStats::operator+=(const ChaseStats& o) {
  valuations += o.valuations;
  matches += o.matches;
  validated_ml += o.validated_ml;
  deps_added += o.deps_added;
  deps_dropped += o.deps_dropped;
  deps_fired += o.deps_fired;
  seeded_joins += o.seeded_joins;
  indices_built += o.indices_built;
  ml_indices_built += o.ml_indices_built;
  join_candidates += o.join_candidates;
  ml_probes += o.ml_probes;
  ml_probe_candidates += o.ml_probe_candidates;
  inc_rounds += o.inc_rounds;
  inc_frontier_items += o.inc_frontier_items;
  inc_dedup_hits += o.inc_dedup_hits;
  return *this;
}

ChaseStats ChaseStats::operator-(const ChaseStats& earlier) const {
  ChaseStats d = *this;
  d.valuations -= earlier.valuations;
  d.matches -= earlier.matches;
  d.validated_ml -= earlier.validated_ml;
  d.deps_added -= earlier.deps_added;
  d.deps_dropped -= earlier.deps_dropped;
  d.deps_fired -= earlier.deps_fired;
  d.seeded_joins -= earlier.seeded_joins;
  d.indices_built -= earlier.indices_built;
  d.ml_indices_built -= earlier.ml_indices_built;
  d.join_candidates -= earlier.join_candidates;
  d.ml_probes -= earlier.ml_probes;
  d.ml_probe_candidates -= earlier.ml_probe_candidates;
  d.inc_rounds -= earlier.inc_rounds;
  d.inc_frontier_items -= earlier.inc_frontier_items;
  d.inc_dedup_hits -= earlier.inc_dedup_hits;
  return d;
}

void ChaseStats::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->KV("valuations", valuations);
  w->KV("matches", matches);
  w->KV("validated_ml", validated_ml);
  w->KV("deps_added", deps_added);
  w->KV("deps_dropped", deps_dropped);
  w->KV("deps_fired", deps_fired);
  w->KV("seeded_joins", seeded_joins);
  w->KV("indices_built", indices_built);
  w->KV("ml_indices_built", ml_indices_built);
  w->KV("join_candidates", join_candidates);
  w->KV("ml_probes", ml_probes);
  w->KV("ml_probe_candidates", ml_probe_candidates);
  w->KV("inc_rounds", inc_rounds);
  w->KV("inc_frontier_items", inc_frontier_items);
  w->KV("inc_dedup_hits", inc_dedup_hits);
  w->EndObject();
}

void ChaseStats::AddToRegistry() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("chase.valuations")->Add(valuations);
  reg.GetCounter("chase.matches")->Add(matches);
  reg.GetCounter("chase.validated_ml")->Add(validated_ml);
  reg.GetCounter("chase.deps_added")->Add(deps_added);
  reg.GetCounter("chase.deps_dropped")->Add(deps_dropped);
  reg.GetCounter("chase.deps_fired")->Add(deps_fired);
  reg.GetCounter("chase.seeded_joins")->Add(seeded_joins);
  reg.GetCounter("chase.indices_built")->Add(indices_built);
  reg.GetCounter("chase.ml_indices_built")->Add(ml_indices_built);
  reg.GetCounter("chase.join_candidates")->Add(join_candidates);
  reg.GetCounter("chase.ml_probes")->Add(ml_probes);
  reg.GetCounter("chase.ml_probe_candidates")->Add(ml_probe_candidates);
  reg.GetCounter("chase.inc_rounds")->Add(inc_rounds);
  reg.GetCounter("chase.inc_frontier_items")->Add(inc_frontier_items);
  reg.GetCounter("chase.inc_dedup_hits")->Add(inc_dedup_hits);
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("matched_pairs", matched_pairs);
  w.KV("validated_ml", validated_ml);
  w.KV("seconds", seconds);
  w.Key("chase");
  chase.AppendJson(&w);
  w.Key("cache").BeginObject();
  w.KV("ml_predictions", ml_predictions);
  w.KV("ml_cache_hits", ml_cache_hits);
  w.EndObject();
  if (!superstep_stats.empty()) {
    w.Key("supersteps").BeginArray();
    for (const SuperstepStats& s : superstep_stats) {
      w.BeginObject();
      w.KV("step", s.step);
      w.KV("max_seconds", s.max_seconds);
      w.KV("mean_seconds", s.mean_seconds);
      w.KV("skew", s.skew);
      w.KV("messages", s.messages);
      w.KV("bytes", s.bytes);
      w.KV("outbox_messages", s.outbox_messages);
      w.KV("outbox_bytes", s.outbox_bytes);
      w.KV("inc_rounds", s.inc_rounds);
      w.KV("inc_frontier_items", s.inc_frontier_items);
      w.KV("inc_dedup_hits", s.inc_dedup_hits);
      w.KV("seeded_joins", s.seeded_joins);
      w.Key("worker_seconds").BeginArray();
      for (double t : s.worker_seconds) w.Value(t);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
  }
  if (!metrics.empty()) {
    w.Key("metrics");
    metrics.AppendJson(&w);
  }
  ExtraJson(&w);
  w.EndObject();
  return w.str();
}

void RunReport::ExtraJson(JsonWriter*) const {}

}  // namespace dcer
