#include "layers.h"

#include <algorithm>

#include "common/rng.h"
#include "core/bound.h"
#include "core/brepartition.h"
#include "core/optimal_m.h"
#include "core/pccp.h"
#include "harness.h"
#include "storage/pager.h"

namespace perfbench {

TracedKnn TraceKnn(const brep::Index& index, std::span<const double> y,
                   size_t k) {
  const brep::BrePartition& bp = index.impl();
  const auto view = bp.OpenReadView();
  TracedKnn t;
  t.live_points = view.num_points();
  k = std::min(k, view.num_points());

  auto t0 = Clock::now();
  const auto y_subs = bp.GatherQuery(y);
  const auto triples = bp.TransformQueryAll(y_subs);
  const brep::QueryBounds qb = brep::QBDetermine(view.transformed(), triples, k);
  t.bound_ms = MsSince(t0);

  t0 = Clock::now();
  brep::SearchStats ss;
  const std::vector<uint32_t> cand =
      view.forest().RangeCandidatesUnion(y_subs, qb.radii, &ss);
  t.filter_ms = MsSince(t0);

  const brep::PointStore& store = view.forest().point_store();
  const brep::BregmanDivergence& div = bp.divergence();
  t0 = Clock::now();
  brep::TopK topk(k);
  store.FetchMany(cand, [&](uint32_t id, std::span<const double> x) {
    topk.Push(div.Divergence(x, y), id);
  });
  t.answer = topk.SortedResults();
  t.refine_ms = MsSince(t0);

  t0 = Clock::now();
  store.FetchMany(cand, [](uint32_t, std::span<const double>) {});
  t.fetch_ms = MsSince(t0);

  t.candidates = cand.size();
  t.nodes_visited = ss.nodes_visited;
  t.leaves_visited = ss.leaves_visited;
  t.points_evaluated = ss.points_evaluated;
  t.pages = store.CountDistinctPages(cand);
  for (size_t m = 0; m < view.forest().num_partitions(); ++m) {
    t.max_tree_candidates =
        std::max(t.max_tree_candidates,
                 view.forest().tree(m).RangeCandidates(y_subs[m], qb.radii[m])
                     .size());
  }
  return t;
}

BuildReplay ReplayBuild(const brep::Matrix& data,
                        const brep::IndexOptions& options,
                        const brep::Index& built) {
  const brep::BrePartitionConfig& cfg = options.config;
  const brep::BregmanDivergence& div = built.divergence();
  BuildReplay r;
  brep::Rng rng(cfg.seed);

  auto t0 = Clock::now();
  const brep::CostModelFit fit =
      brep::FitCostModel(data, div, rng, cfg.fit_samples, 2,
                         std::min<size_t>(8, data.cols()), cfg.fit_eval_limit);
  size_t m = cfg.num_partitions;
  if (m == 0) {
    m = brep::OptimalNumPartitions(fit, data.rows(), data.cols(), 1,
                                   cfg.max_partitions);
    m = std::max(m, std::min(std::max<size_t>(cfg.min_partitions, 1),
                             data.cols()));
  }
  r.fit_ms = MsSince(t0);

  t0 = Clock::now();
  const brep::Partitioning parts =
      brep::PccpPartition(data, m, rng, cfg.pccp_sample_rows);
  r.pccp_ms = MsSince(t0);

  std::vector<brep::BregmanDivergence> sub_divs;
  for (const auto& cols : parts) sub_divs.push_back(div.Restrict(cols));
  t0 = Clock::now();
  const brep::TransformedDataset transformed(data, parts, sub_divs);
  r.transform_ms = MsSince(t0);

  brep::MemPager pager(options.page_size);
  t0 = Clock::now();
  const brep::BBForest forest(&pager, data, div, parts, cfg.forest);
  r.forest_ms = MsSince(t0);

  if (m != built.num_partitions()) {
    r.mismatch = "replayed M " + std::to_string(m) + " != built M " +
                 std::to_string(built.num_partitions());
  } else if (parts != built.impl().partitioning()) {
    r.mismatch = "replayed partitioning differs from the built index's";
  }
  return r;
}

}  // namespace perfbench
