// Per-world metrics registry (DESIGN.md §11): named counters, gauges, and
// histograms scraped at world boundaries and merged across a fleet in
// world-index order — the same discipline as FleetExecutor's histogram
// merge, so merged snapshots are thread-count invariant. Snapshots export
// to a deterministic text form (diffed by the determinism harness) and
// carry an FNV digest for cheap equality checks.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace androne {

// A point-in-time copy of a registry. std::map keys keep every export and
// digest ordering deterministic.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Folds |other| into this snapshot: counters sum, gauges take |other|'s
  // value (the later world in index order wins), histograms merge
  // bucket-by-bucket. Merging in world-index order makes the result
  // independent of completion order.
  void Merge(const MetricsSnapshot& other);

  // Deterministic text export: one "kind name value" line per metric,
  // sorted by kind then name; histograms export count/min/mean/max/p99.
  std::string ToText() const;

  // Order-sensitive FNV digest over the full snapshot. Equal metric streams
  // digest equal; the determinism harness compares digests first and falls
  // back to a text diff for the error message.
  uint64_t Digest() const;
};

// Counter and Hist hand out references into std::map nodes, which never
// move: a hot caller may resolve a name once and keep the reference until
// Clear().
class MetricsRegistry {
 public:
  // Adds |delta| to the named counter (created at 0).
  void Add(const std::string& name, double delta = 1);
  // The named counter itself (created at 0).
  double& Counter(const std::string& name);
  // Sets the named gauge.
  void Set(const std::string& name, double value);
  // Named histogram with the default log-bucket layout; created on first
  // use. Callers may Record() into it or Merge() an existing histogram.
  Histogram& Hist(const std::string& name);
  // Same, but a first use creates the histogram with the given layout —
  // e.g. more decades for values that outrange the default [1, 1e8) span.
  // An existing histogram's layout is left untouched, so every recorder of
  // a shared name must ask for the same layout or the merge loses buckets.
  Histogram& Hist(const std::string& name, int buckets_per_decade,
                  int decades);

  MetricsSnapshot Snapshot() const;
  void Clear();

  // Merges per-world snapshots in vector (= world-index) order.
  static MetricsSnapshot MergeIndexOrder(
      const std::vector<MetricsSnapshot>& worlds);

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace androne

#endif  // SRC_OBS_METRICS_H_
