#include "workload.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "common/rng.h"
#include "core/brepartition.h"
#include "layers.h"
#include "obs/index_metrics.h"
#include "storage/pager.h"

namespace perfbench {
namespace {

/// Set-ups per run: at least kMinSetups, then more until kSetupBudgetMs is
/// spent (at most kMaxSetups). setup_s is their median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetMs = 2000;

using Answer = std::vector<brep::Neighbor>;
/// Work counters that must repeat exactly on one index state: per query
/// (candidates, nodes, leaves, points, pages) and per join (pairs visited,
/// pruned, evaluated).
using Counters = std::vector<uint64_t>;

std::string Str(const brep::Status& s) { return s.ToString(); }

/// Per-layer samples of a traced run.
struct Layers {
  std::vector<double> overhead, bound, filter, fetch, refine_ns, us_per_node,
      scan_ns, batch_speedup, join_build, join_descent, traced_wall,
      untraced_wall, wal_append, publish;
  /// Sums over round 0's traced queries (`queries` of them).
  double nodes = 0, leaves = 0, points = 0, cand_frac = 0, max_frac = 0,
         pages = 0, queries = 0;
  /// Sums over every traced query (`io_queries` of them).
  double io_reads = 0, io_queries = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  double pages_written = 0, writes = 0;
  brep::JoinStats join;
  double join_pairs = 0;
  double save_ms = 0, open_ms = 0;
  BuildReplay build;
};

class Runner {
 public:
  Runner(Spec spec, const Args& args, Report* report)
      : spec_(std::move(spec)), args_(args), report_(report) {}

  int Run();

 private:
  bool Setup();
  double Round(size_t round);
  double ChurnPhase(size_t round);
  void Writes(size_t round);
  void TraceQuery(size_t round, size_t i, const Answer& answer,
                  const brep::SearchIndex::Stats& st, double ms);
  void CheckSingles(const std::vector<size_t>& idx,
                    const std::vector<Answer>& singles);
  void CheckJoin(size_t round, const std::vector<Answer>& rows);
  void RecordWriteLayers(const brep::obs::MetricsSnapshot& before,
                         double writes);
  const PointSet& Live();
  void Emit();
  void EmitLayers();
  std::string Path(const std::string& what, size_t rep) const {
    return args_.tmp_dir + "/" + spec_.name + "-" + std::to_string(rep) + what;
  }

  Spec spec_;
  const Args& args_;
  Report* report_;
  size_t n_ = 0;

  std::vector<double> setup_ms_, save_ms_, open_ms_;
  std::optional<brep::Index> built_;
  std::optional<brep::Index> opened_;
  brep::Index* served_ = nullptr;
  std::unique_ptr<brep::SearchIndex> scan_;
  double index_mb_ = 0;

  /// The live set the benchmark keeps itself: rows_[id] is the point id
  /// holds (empty when not live); history_[id] every point it has held.
  std::vector<std::vector<double>> rows_;
  std::vector<std::vector<std::vector<double>>> history_;
  std::vector<uint32_t> live_ids_;
  size_t inserted_ = 0;
  /// The reference's view of rows_, rebuilt when the live set changed.
  std::optional<PointSet> live_;

  /// Without churn the live set is the same at every check, so each query
  /// (and the join) must repeat its first answer bit for bit. Its work
  /// need not repeat: the writes between rounds reshape the trees.
  std::vector<std::optional<Answer>> ref_;
  std::vector<Answer> ref_join_;

  std::vector<double> knn_ms_, scan_ms_, insert_ms_, delete_ms_;
  /// Throughputs are whole-run rates: work done over the time it took.
  /// Slow and fast phases of a shared host then move them in proportion
  /// to their share of the run, where a median of rounds would jump
  /// between the two.
  struct Rate {
    double work = 0, ms = 0;
    size_t calls = 0;
    void Add(double w, double t) {
      work += w;
      ms += t;
      ++calls;
    }
    double PerSecond() const { return ms > 0 ? work * 1e3 / ms : 0; }
  };
  Rate batch_, join_, scan_join_;
  double cand_sum_ = 0, cand_queries_ = 0;
  Layers layers_;
};

int Runner::Run() {
  n_ = spec_.data.rows();
  rows_.resize(n_);
  history_.resize(n_);
  for (uint32_t id = 0; id < n_; ++id) {
    const auto r = spec_.data.Row(id);
    rows_[id].assign(r.begin(), r.end());
    history_[id].push_back(rows_[id]);
    live_ids_.push_back(id);
  }
  ref_.resize(spec_.queries.rows());
  if (!Setup()) return 1;

  const auto snap = served_->Metrics();
  const double* simd = snap.FindGauge(brep::obs::kSimdKernelGauge);
  const char* simd_env = std::getenv("BREP_SIMD");
  std::printf("host: nproc %zu, load threads %zu, SIMD backend %s "
              "(BREP_SIMD=%s), compiler %s, %s build\n",
              NumProcs(), LoadThreads(),
              simd != nullptr && *simd == 1.0 ? "avx2" : "scalar",
              simd_env != nullptr ? simd_env : "unset", __VERSION__,
#ifdef NDEBUG
              "optimized"
#else
              "debug"
#endif
  );

  double measured_ms = 0;
  size_t round = 0;
  while (round == 0 || measured_ms < args_.seconds * 1e3) {
    measured_ms += Round(round);
    ++round;
  }
  std::printf("%s: %zu rounds, %.1f s measured, %zu set-ups\n",
              spec_.name.c_str(), round, measured_ms / 1e3, setup_ms_.size());
  if (args_.trace) {
    EmitLayers();
  } else {
    Emit();
  }
  return 0;
}

bool Runner::Setup() {
  double spent_ms = 0;
  for (size_t rep = 0; rep < kMaxSetups; ++rep) {
    if (rep >= kMinSetups && spent_ms >= kSetupBudgetMs) break;
    opened_.reset();
    built_.reset();
    std::error_code ec;
    std::filesystem::remove(Path(".idx", rep), ec);
    std::filesystem::remove(Path(".wal", rep), ec);
    if (rep > 0) {
      std::filesystem::remove(Path(".idx", rep - 1), ec);
      std::filesystem::remove(Path(".wal", rep - 1), ec);
    }
    brep::IndexOptions options = spec_.options;
    if (spec_.churn) {
      options.durability.wal_path = Path(".wal", rep);
      options.durability.fsync_mode = brep::FsyncMode::kNone;
    }
    const auto t0 = Clock::now();
    auto built = brep::Index::Build(spec_.data, spec_.divergence, options);
    if (!built.ok()) {
      report_->Error("Build: " + Str(built.status()));
      return false;
    }
    built_.emplace(*std::move(built));
    double save_ms = 0, open_ms = 0;
    if (spec_.file_backed || spec_.churn) {
      // The churn index's Save is its first checkpoint, which attaches the
      // WAL and unlocks writes.
      const auto ts = Clock::now();
      const brep::Status saved = built_->Save(Path(".idx", rep));
      save_ms = MsSince(ts);
      if (!saved.ok()) {
        report_->Error("Save: " + Str(saved));
        return false;
      }
    }
    if (spec_.file_backed) {
      const auto to = Clock::now();
      auto opened = brep::Index::Open(Path(".idx", rep));
      open_ms = MsSince(to);
      if (!opened.ok()) {
        report_->Error("Open: " + Str(opened.status()));
        return false;
      }
      opened_.emplace(*std::move(opened));
    }
    setup_ms_.push_back(MsSince(t0));
    save_ms_.push_back(save_ms);
    open_ms_.push_back(open_ms);
    spent_ms += setup_ms_.back();
  }
  served_ = opened_ ? &*opened_ : &*built_;
  // The index's size as set up: its pager's pages (for sift-file, the
  // saved file reopened through FilePager).
  const brep::Pager& pager = *served_->impl().pager();
  index_mb_ = double(pager.num_pages() * pager.page_size()) / 1e6;

  if (!spec_.churn) {
    auto scan = brep::MakeSearchIndex("scan", nullptr, spec_.data,
                                      spec_.divergence);
    if (!scan.ok()) {
      report_->Error("scan backend: " + Str(scan.status()));
      return false;
    }
    scan_ = *std::move(scan);
  }

  if (args_.trace) {
    layers_.build = ReplayBuild(spec_.data, spec_.options, *built_);
    if (!layers_.build.mismatch.empty()) {
      report_->Wrong("build replay: " + layers_.build.mismatch);
    }
    layers_.save_ms = Median(save_ms_);
    layers_.open_ms = Median(open_ms_);
    if (!spec_.file_backed) {
      // Save and Open of a copy: the storage layer's share of a set-up
      // that does not pay it (the churn index's save is its checkpoint).
      const std::string path = Path(".copy", 0);
      const auto ts = Clock::now();
      const brep::Status saved = built_->Save(path);
      const double save_ms = MsSince(ts);
      const auto to = Clock::now();
      auto copy = brep::Index::Open(path);
      const double open_ms = MsSince(to);
      if (!saved.ok() || !copy.ok()) {
        report_->Error("Save/Open of a copy");
      } else {
        if (!spec_.churn) layers_.save_ms = save_ms;
        layers_.open_ms = open_ms;
      }
    }
  }
  return true;
}

const PointSet& Runner::Live() {
  if (!live_) {
    live_.emplace();
    live_->rows.resize(rows_.size());
    for (const uint32_t id : live_ids_) live_->rows[id] = rows_[id];
    live_->live = live_ids_.size();
    Prepare(spec_.div, &*live_);
  }
  return *live_;
}

double Runner::Round(size_t round) {
  double measured = 0;
  if (spec_.churn) measured += ChurnPhase(round);

  const brep::Matrix& q = spec_.queries;
  const size_t k = spec_.k;
  // This round's slice of the query set, cycling through it.
  std::vector<size_t> idx(spec_.per_round);
  for (size_t j = 0; j < idx.size(); ++j) {
    idx[j] = (round * idx.size() + j) % q.rows();
  }
  const brep::Matrix slice = q.GatherRows(idx);
  const size_t nb = idx.size();
  std::vector<Answer> singles(nb);
  const auto t0 = Clock::now();

  // Single queries from one client.
  double single_ms = 0;
  for (size_t j = 0; j < nb; ++j) {
    report_->Attempt();
    brep::SearchIndex::Stats st;
    const auto ts = Clock::now();
    auto res = served_->Knn(slice.Row(j), k, &st);
    const double ms = MsSince(ts);
    single_ms += ms;
    if (!res.ok()) {
      report_->Error("Knn: " + Str(res.status()));
      continue;
    }
    singles[j] = *std::move(res);
    if (!spec_.churn) knn_ms_.push_back(ms);
    cand_sum_ += double(st.candidates) / double(live_ids_.size());
    cand_queries_ += 1;
    if (args_.trace) TraceQuery(round, idx[j], singles[j], st, ms);
  }

  // One Parallel batch of the same queries.
  report_->Attempt();
  std::vector<Answer> batch;
  double batch_ms = 0;
  {
    auto par = served_->Parallel(LoadThreads());
    const auto tb = Clock::now();
    auto res = par.ok() ? par->KnnBatch(slice, k)
                        : brep::StatusOr<std::vector<Answer>>(par.status());
    batch_ms = MsSince(tb);
    if (res.ok()) {
      batch = *std::move(res);
      batch_.Add(double(nb), batch_ms);
    } else {
      report_->Error("KnnBatch: " + Str(res.status()));
    }
  }
  if (args_.trace) {
    layers_.batch_speedup.push_back(batch_ms > 0 ? single_ms / batch_ms : 0);
  }

  // The same queries through the scan backend, over the live set (rows
  // in ascending id order, so ties order the same way).
  std::vector<uint32_t> scan_ids;  // scan row -> index id
  std::unique_ptr<brep::SearchIndex> live_scan;
  brep::Matrix live_rows;
  const brep::SearchIndex* scan = scan_.get();
  if (spec_.churn) {
    scan_ids = live_ids_;
    std::sort(scan_ids.begin(), scan_ids.end());
    std::vector<double> flat;
    for (const uint32_t id : scan_ids) {
      flat.insert(flat.end(), rows_[id].begin(), rows_[id].end());
    }
    live_rows =
        brep::Matrix(scan_ids.size(), spec_.data.cols(), std::move(flat));
    auto made = brep::MakeSearchIndex("scan", nullptr, live_rows,
                                      spec_.divergence);
    if (!made.ok()) {
      report_->Error("scan backend: " + Str(made.status()));
      return measured + MsSince(t0);
    }
    live_scan = *std::move(made);
    scan = live_scan.get();
  }
  auto remap = [&](Answer a) {
    if (!scan_ids.empty()) {
      for (brep::Neighbor& nb : a) nb.id = scan_ids[nb.id];
    }
    return a;
  };
  std::vector<Answer> scanned(nb);
  for (size_t j = 0; j < nb; ++j) {
    report_->Attempt();
    const auto ts = Clock::now();
    auto res = scan->Knn(slice.Row(j), k);
    const double ms = MsSince(ts);
    scan_ms_.push_back(ms);
    if (args_.trace) {
      layers_.scan_ns.push_back(ms * 1e6 / double(live_ids_.size()));
    }
    if (!res.ok()) {
      report_->Error("scan Knn: " + Str(res.status()));
      continue;
    }
    scanned[j] = remap(*std::move(res));
  }

  // The kNN-join of R against the index, and the scan's nested loop.
  const brep::Matrix& r = spec_.join_r;
  report_->Attempt();
  auto ts = Clock::now();
  auto join = served_->KnnJoin(r, k);
  const double join_ms = MsSince(ts);
  join_.Add(double(r.rows()), join_ms);
  report_->Attempt();
  ts = Clock::now();
  auto scan_join = scan->KnnJoin(r, k);
  const double scan_join_ms = MsSince(ts);
  scan_join_.Add(double(r.rows()), scan_join_ms);
  measured += MsSince(t0);
  std::printf("round %zu: singles %.1f, batch %.1f, join %.1f, scan join "
              "%.1f ms\n",
              round, single_ms, batch_ms, join_ms, scan_join_ms);

  // Checks, outside the timed regions.
  CheckSingles(idx, singles);
  auto same_as_singles = [&](const std::vector<Answer>& got,
                             const std::string& what) {
    for (size_t j = 0; j < nb; ++j) {
      if (got[j] != singles[j]) {
        report_->Wrong(what + " differs from the single answer, query " +
                       std::to_string(idx[j]));
        return;
      }
    }
  };
  if (!batch.empty()) same_as_singles(batch, "Parallel batch");
  same_as_singles(scanned, "scan");
  if (!join.ok()) {
    report_->Error("KnnJoin: " + Str(join.status()));
  } else {
    CheckJoin(round, join->neighbors);
    // R's first rows are the query set's first rows (or the other way
    // round): a join row and a single answer of the same vector agree.
    for (size_t j = 0; j < nb; ++j) {
      if (idx[j] < r.rows() && join->neighbors[idx[j]] != singles[j]) {
        report_->Wrong("KnnJoin row differs from the single answer, row " +
                       std::to_string(idx[j]));
        break;
      }
    }
    if (!scan_join.ok()) {
      report_->Error("scan KnnJoin: " + Str(scan_join.status()));
    } else {
      for (size_t i = 0; i < r.rows(); ++i) {
        if (remap(scan_join->neighbors[i]) != join->neighbors[i]) {
          report_->Wrong("scan KnnJoin row differs from KnnJoin, row " +
                         std::to_string(i));
          break;
        }
      }
    }
  }
  if (args_.trace && join.ok()) {
    // A second join on the same state: the work counters must repeat.
    const brep::JoinStats& js = join->stats;
    const Counters c = {js.node_pairs_visited, js.node_pairs_pruned,
                        js.pairs_evaluated};
    auto again = served_->KnnJoin(r, k);
    if (!again.ok() || c != Counters{again->stats.node_pairs_visited,
                                     again->stats.node_pairs_pruned,
                                     again->stats.pairs_evaluated}) {
      report_->Wrong("join work counters differ between two joins");
    }
    if (round == 0) {
      layers_.join = js;
      layers_.join_pairs = double(r.rows()) * double(live_ids_.size());
    }
    layers_.join_build.push_back(js.build_ms);
    layers_.join_descent.push_back(js.descent_ms);
  }

  if (!spec_.churn) {
    const auto tw = Clock::now();
    Writes(round);
    measured += MsSince(tw);
    std::printf("round %zu: writes %.1f ms\n", round, MsSince(tw));
  }
  return measured;
}

/// The traced decomposition of query i, right after its Index::Knn call.
/// Work counters are reported from round 0 only: the index state there
/// depends on the seed alone, so they repeat exactly from run to run.
void Runner::TraceQuery(size_t round, size_t i, const Answer& answer,
                        const brep::SearchIndex::Stats& st, double ms) {
  const TracedKnn t = TraceKnn(*served_, spec_.queries.Row(i), spec_.k);
  if (t.answer != answer) {
    report_->Wrong("traced answer differs from Index::Knn, query " +
                   std::to_string(i));
  }
  const Counters traced = {t.candidates, t.nodes_visited, t.leaves_visited,
                           t.points_evaluated, t.pages};
  const Counters untraced = {st.candidates, st.nodes_visited,
                             st.leaves_visited, st.points_evaluated, t.pages};
  if (traced != untraced) {
    report_->Wrong("work counters differ between the traced and untraced "
                   "query " + std::to_string(i));
  }
  const double layers_ms = t.bound_ms + t.filter_ms + t.refine_ms;
  Layers& L = layers_;
  L.untraced_wall.push_back(ms);
  L.traced_wall.push_back(layers_ms);
  L.overhead.push_back(ms - layers_ms);
  L.bound.push_back(t.bound_ms);
  L.filter.push_back(t.filter_ms);
  L.fetch.push_back(t.fetch_ms);
  if (t.candidates > 0) {
    L.refine_ns.push_back((t.refine_ms - t.fetch_ms) * 1e6 /
                          double(t.candidates));
  }
  if (t.nodes_visited > 0) {
    L.us_per_node.push_back(t.filter_ms * 1e3 / double(t.nodes_visited));
  }
  L.io_reads += double(st.io_reads);
  L.pool_hits += st.pool_hits;
  L.pool_misses += st.pool_misses;
  L.io_queries += 1;
  if (round > 0) return;
  L.nodes += double(t.nodes_visited);
  L.leaves += double(t.leaves_visited);
  L.points += double(t.points_evaluated);
  L.pages += double(t.pages);
  L.cand_frac += double(t.candidates) / double(t.live_points);
  L.max_frac += double(t.max_tree_candidates) / double(t.live_points);
  L.queries += 1;
}

/// Single answers: exact against the reference the first time a query is
/// answered over a live set, and bit for bit the same answer afterwards.
/// A file-backed index's first answer is also compared with the answer of
/// the index as built (reopened == built).
void Runner::CheckSingles(const std::vector<size_t>& idx,
                          const std::vector<Answer>& singles) {
  const brep::Matrix& q = spec_.queries;
  for (size_t j = 0; j < idx.size(); ++j) {
    const size_t i = idx[j];
    if (!spec_.churn && ref_[i]) {
      if (singles[j] != *ref_[i]) {
        report_->Wrong("query " + std::to_string(i) +
                       " differs from its first answer");
      }
      continue;
    }
    const std::string why =
        CheckKnn(spec_.div, singles[j], q.Row(i), spec_.k, Live());
    if (!why.empty()) report_->Wrong("query " + std::to_string(i) + ": " + why);
    if (spec_.churn) continue;
    ref_[i] = singles[j];
    if (opened_) {
      report_->Attempt();
      auto res = built_->Knn(q.Row(i), spec_.k);
      if (!res.ok()) {
        report_->Error("built Knn: " + Str(res.status()));
      } else if (*res != singles[j]) {
        report_->Wrong("reopened answer differs from built, query " +
                       std::to_string(i));
      }
    }
  }
}

/// Join rows: exact against the reference over every new live set, and
/// bit for bit the first join's rows while the live set is the same.
void Runner::CheckJoin(size_t round, const std::vector<Answer>& rows) {
  const brep::Matrix& r = spec_.join_r;
  if (spec_.churn || round == 0) {
    for (size_t i = 0; i < r.rows(); ++i) {
      const std::string why =
          CheckKnn(spec_.div, rows[i], r.Row(i), spec_.k, Live());
      if (!why.empty()) {
        report_->Wrong("join row " + std::to_string(i) + ": " + why);
      }
    }
    ref_join_ = rows;
  } else if (rows != ref_join_) {
    report_->Wrong("round " + std::to_string(round) +
                   " join differs from the first join");
  }
}

void Runner::RecordWriteLayers(const brep::obs::MetricsSnapshot& before,
                               double writes) {
  const auto after = served_->Metrics();
  const uint64_t* wa = after.FindCounter(brep::obs::kPagerWritesTotal);
  const uint64_t* wb = before.FindCounter(brep::obs::kPagerWritesTotal);
  if (wa != nullptr && wb != nullptr) {
    layers_.pages_written += double(*wa - *wb);
  }
  layers_.writes += writes;
  // p50 of the histogram deltas; 0 where the index has no such series
  // (no WAL).
  auto p50 = [&](const char* name) {
    const auto* a = after.FindHistogram(name);
    const auto* b = before.FindHistogram(name);
    return a != nullptr && b != nullptr ? a->Since(*b).Percentile(50) : 0.0;
  };
  layers_.wal_append.push_back(p50(brep::obs::kWalAppendLatencyMs));
  layers_.publish.push_back(p50(brep::obs::kSnapshotPublishLatencyMs));
}

/// Inserts of writes/2 pool points, then deletes of the same ids: the live
/// set ends the round as it began.
void Runner::Writes(size_t round) {
  const size_t half = spec_.writes / 2;
  const auto before =
      args_.trace ? served_->Metrics() : brep::obs::MetricsSnapshot{};
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < half; ++i) {
    const size_t row = (round * half + i) % spec_.pool.rows();
    report_->Attempt();
    const auto ts = Clock::now();
    auto id = served_->Insert(spec_.pool.Row(row));
    insert_ms_.push_back(MsSince(ts));
    if (!id.ok()) {
      report_->Error("Insert: " + Str(id.status()));
      continue;
    }
    if (*id < n_) report_->Wrong("Insert reused a live id");
    ids.push_back(*id);
  }
  for (const uint32_t id : ids) {
    report_->Attempt();
    const auto ts = Clock::now();
    const brep::Status st = served_->Delete(id);
    delete_ms_.push_back(MsSince(ts));
    if (!st.ok()) report_->Error("Delete: " + Str(st));
  }
  if (args_.trace) RecordWriteLayers(before, double(2 * half));
}

/// Writes between two reads of the churn phase.
constexpr size_t kWritesPerRead = 6;

/// A seeded insert/delete sequence with a kNN read after every
/// kWritesPerRead writes. Reads and writes take turns on one thread, so the
/// whole operation sequence is fixed by the seed; with a reader thread
/// racing the writer, the write timings would also depend on how the two
/// threads happen to interleave.
double Runner::ChurnPhase(size_t round) {
  brep::Rng rng(args_.seed * 7919 + round);
  const brep::Matrix& q = spec_.queries;
  struct Read {
    size_t query;
    Answer answer;
  };
  std::vector<Read> reads;
  std::vector<std::string> errors, wrongs;
  uint64_t write_ops = 0;
  const auto before =
      args_.trace ? served_->Metrics() : brep::obs::MetricsSnapshot{};

  // Outcomes are collected and reported after the timed phase.
  auto write_one = [&](size_t w) {
    ++write_ops;
    if (w % 2 == 0) {
      const auto p = spec_.pool.Row(inserted_++ % spec_.pool.rows());
      const auto ts = Clock::now();
      auto id = served_->Insert(p);
      insert_ms_.push_back(MsSince(ts));
      if (!id.ok()) {
        errors.push_back("Insert: " + Str(id.status()));
        return;
      }
      if (*id >= rows_.size()) {
        rows_.resize(*id + 1);
        history_.resize(*id + 1);
      }
      if (!rows_[*id].empty()) {
        wrongs.push_back("Insert reused a live id");
        return;
      }
      rows_[*id].assign(p.begin(), p.end());
      history_[*id].push_back(rows_[*id]);
      live_ids_.push_back(*id);
    } else {
      const size_t pick = rng.NextBelow(live_ids_.size());
      const uint32_t id = live_ids_[pick];
      const auto ts = Clock::now();
      const brep::Status st = served_->Delete(id);
      delete_ms_.push_back(MsSince(ts));
      if (!st.ok()) {
        errors.push_back("Delete: " + Str(st));
        return;
      }
      live_ids_[pick] = live_ids_.back();
      live_ids_.pop_back();
      rows_[id].clear();
    }
  };
  auto read_one = [&](size_t i) {
    const size_t qi = i % q.rows();
    const auto ts = Clock::now();
    auto res = served_->Knn(q.Row(qi), spec_.k);
    knn_ms_.push_back(MsSince(ts));
    if (!res.ok()) {
      errors.push_back("Knn under churn: " + Str(res.status()));
      reads.push_back({qi, {}});
      return;
    }
    reads.push_back({qi, *std::move(res)});
  };

  const auto t0 = Clock::now();
  const size_t first_read = round * spec_.per_round;
  for (size_t w = 0; w < spec_.writes; ++w) {
    write_one(w);
    if (w % kWritesPerRead == 0) read_one(first_read + w / kWritesPerRead);
  }
  const double ms = MsSince(t0);
  live_.reset();

  report_->Attempt(write_ops + reads.size());
  for (const std::string& e : errors) report_->Error(e);
  for (const std::string& e : wrongs) report_->Wrong(e);
  for (const Read& r : reads) {
    if (r.answer.empty()) continue;
    const std::string why =
        CheckDistances(spec_.div, r.answer, q.Row(r.query), spec_.k, history_);
    if (!why.empty()) report_->Wrong("read under churn: " + why);
  }
  if (args_.trace) RecordWriteLayers(before, double(write_ops));
  return ms;
}

void Runner::Emit() {
  Report& r = *report_;
  r.Metric("setup_s", Median(setup_ms_) / 1e3, "s");
  r.Metric("knn_p50_ms", Quantile(knn_ms_, 0.5), "ms");
  r.Metric("knn_p90_ms", Quantile(knn_ms_, 0.9), "ms");
  r.Metric("batch_qps", batch_.PerSecond(), "queries/s");
  r.Metric("scan_knn_p50_ms", Quantile(scan_ms_, 0.5), "ms");
  r.Metric("index_file_mb", index_mb_, "MB");
  r.Metric("insert_p50_ms", Quantile(insert_ms_, 0.5), "ms");
  r.Metric("insert_p90_ms", Quantile(insert_ms_, 0.9), "ms");
  r.Metric("delete_p50_ms", Quantile(delete_ms_, 0.5), "ms");
  r.Metric("delete_p90_ms", Quantile(delete_ms_, 0.9), "ms");
  r.Metric("join_rows_per_s", join_.PerSecond(), "rows/s");
  r.Metric("scan_join_rows_per_s", scan_join_.PerSecond(), "rows/s");
  const double index_p50 = Quantile(knn_ms_, 0.5);
  const double scan_p50 = Quantile(scan_ms_, 0.5);
  std::printf(
      "headline %s: index/scan %.3f (knn p50 %.3f ms, scan p50 %.3f ms), "
      "candidate fraction %.4f, M=%zu; samples: %zu knn, %zu scan, %zu "
      "batches, %zu joins, %zu inserts, %zu deletes\n",
      spec_.name.c_str(), index_p50 / scan_p50, index_p50, scan_p50,
      cand_sum_ / cand_queries_, served_->num_partitions(), knn_ms_.size(),
      scan_ms_.size(), batch_.calls, join_.calls, insert_ms_.size(),
      delete_ms_.size());
}

void Runner::EmitLayers() {
  Report& r = *report_;
  const Layers& L = layers_;
  const double nq = L.queries > 0 ? L.queries : 1;
  const double pool = double(L.pool_hits + L.pool_misses);
  r.Metric("api.knn_overhead_ms", Median(L.overhead), "ms");
  r.Metric("core.bound_ms", Median(L.bound), "ms");
  r.Metric("core.partitions", double(served_->num_partitions()), "count");
  r.Metric("bbtree.filter_ms", Median(L.filter), "ms");
  r.Metric("bbtree.nodes_visited", L.nodes / nq, "count");
  r.Metric("bbtree.leaves_visited", L.leaves / nq, "count");
  r.Metric("bbtree.points_evaluated", L.points / nq, "count");
  r.Metric("bbtree.us_per_node", Median(L.us_per_node), "us");
  r.Metric("bbtree.candidate_fraction", L.cand_frac / nq, "ratio");
  r.Metric("bbtree.max_subspace_fraction", L.max_frac / nq, "ratio");
  r.Metric("storage.fetch_ms", Median(L.fetch), "ms");
  r.Metric("storage.pages_per_query", L.pages / nq, "count");
  r.Metric("storage.io_reads",
           L.io_queries > 0 ? L.io_reads / L.io_queries : 0.0, "count");
  r.Metric("storage.pool_hit_ratio",
           pool > 0 ? double(L.pool_hits) / pool : 0.0, "ratio");
  r.Metric("storage.save_ms", L.save_ms, "ms");
  r.Metric("storage.open_ms", L.open_ms, "ms");
  r.Metric("storage.pages_written_per_write",
           L.writes > 0 ? L.pages_written / L.writes : 0.0, "count");
  r.Metric("divergence.refine_ns_per_candidate", Median(L.refine_ns), "ns");
  r.Metric("divergence.scan_ns_per_point", Median(L.scan_ns), "ns");
  r.Metric("engine.batch_speedup", Median(L.batch_speedup), "x");
  r.Metric("build.fit_ms", L.build.fit_ms, "ms");
  r.Metric("build.pccp_ms", L.build.pccp_ms, "ms");
  r.Metric("build.transform_ms", L.build.transform_ms, "ms");
  r.Metric("build.forest_ms", L.build.forest_ms, "ms");
  r.Metric("wal.append_ms", Median(L.wal_append), "ms");
  r.Metric("snapshot.publish_ms", Median(L.publish), "ms");
  r.Metric("join.build_ms", Median(L.join_build), "ms");
  r.Metric("join.descent_ms", Median(L.join_descent), "ms");
  r.Metric("join.node_pairs_visited", double(L.join.node_pairs_visited),
           "count");
  r.Metric("join.node_pairs_pruned", double(L.join.node_pairs_pruned),
           "count");
  r.Metric("join.pairs_evaluated", double(L.join.pairs_evaluated), "count");
  r.Metric("join.pairs_fraction",
           L.join_pairs > 0 ? double(L.join.pairs_evaluated) / L.join_pairs
                            : 0.0,
           "ratio");
  std::printf(
      "traced %s: knn p50 untraced %.3f ms, through the layer calls %.3f ms "
      "(tracing overhead %.3f ms); batch speedup at %zu threads\n",
      spec_.name.c_str(), Median(L.untraced_wall), Median(L.traced_wall),
      Median(L.traced_wall) - Median(L.untraced_wall), LoadThreads());
}

}  // namespace

int RunWorkload(Spec spec, const Args& args, Report* report) {
  Runner runner(std::move(spec), args, report);
  return runner.Run();
}

}  // namespace perfbench
