#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The traced mode's view of one index: a kNN query decomposed into the
// public calls of each layer, timed from here (nothing is traced inside the
// program), and the build replayed phase by phase.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "api/index.h"

namespace perfbench {

/// One query through GatherQuery / TransformQueryAll / QBDetermine (bound),
/// BBForest::RangeCandidatesUnion (filter) and PointStore::FetchMany with
/// the exact divergence into a top-k (refine), on one pinned version.
struct TracedKnn {
  std::vector<brep::Neighbor> answer;
  double bound_ms = 0.0;
  double filter_ms = 0.0;
  double refine_ms = 0.0;
  /// FetchMany of the same candidates with a no-op sink, after the refine.
  double fetch_ms = 0.0;
  size_t candidates = 0;
  size_t nodes_visited = 0;
  size_t leaves_visited = 0;
  size_t points_evaluated = 0;
  /// PointStore::CountDistinctPages of the candidate set.
  size_t pages = 0;
  /// Largest single-tree candidate count (DiskBBTree::RangeCandidates).
  size_t max_tree_candidates = 0;
  size_t live_points = 0;
};

TracedKnn TraceKnn(const brep::Index& index, std::span<const double> y,
                   size_t k);

/// Build phases replayed with the index's seed and config:
/// FitCostModel -> OptimalNumPartitions -> PccpPartition ->
/// TransformedDataset -> BBForest.
struct BuildReplay {
  double fit_ms = 0.0;
  double pccp_ms = 0.0;
  double transform_ms = 0.0;
  double forest_ms = 0.0;
  /// Empty when the replayed M and partitioning equal the built index's.
  std::string mismatch;
};

BuildReplay ReplayBuild(const brep::Matrix& data,
                        const brep::IndexOptions& options,
                        const brep::Index& built);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
