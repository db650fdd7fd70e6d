// perfbench: one benchmark for exact Bregman kNN through the brep::Index
// facade, next to the registered linear scan.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmp <dir>
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// See README.md for the workloads and the metric map.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/rng.h"
#include "dataset/synthetic.h"
#include "harness.h"
#include "workload.h"

namespace perfbench {

size_t NumProcs() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

size_t LoadThreads() { return std::min<size_t>(4, NumProcs()); }

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false", (unsigned long long)attempted_,
              (unsigned long long)failed_);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
}

namespace {

/// The indexed rows are the first `n` of `all`; the rest feed the inserts.
void Split(const brep::Matrix& all, size_t n, Spec* spec) {
  std::vector<size_t> head(n), tail(all.rows() - n);
  for (size_t i = 0; i < n; ++i) head[i] = i;
  for (size_t i = n; i < all.rows(); ++i) tail[i - n] = i;
  spec->data = all.GatherRows(head);
  spec->pool = all.GatherRows(tail);
}

brep::Matrix Head(const brep::Matrix& m, size_t rows) {
  std::vector<size_t> idx(rows);
  for (size_t i = 0; i < rows; ++i) idx[i] = i;
  return m.GatherRows(idx);
}

brep::IndexOptions Options(size_t page_size) {
  brep::IndexOptions o;
  o.page_size = page_size;
  // Derived M, clamped away from the degenerate M = 1 (as the repo's
  // serving benches do).
  o.config.min_partitions = 4;
  o.config.max_partitions = 64;
  return o;
}

/// Sift stand-in, exponential distance (the paper's ED), served from the
/// saved file through FilePager with a buffer pool smaller than the trees.
Spec SiftFile(uint64_t seed) {
  Spec s;
  s.name = "sift-file";
  s.div = Div::kExponential;
  s.divergence = "exponential";
  const size_t n = 3000, d = 128;
  brep::Rng rng(seed);
  Split(brep::MakeSiftLike(rng, n + 100, d), n, &s);
  brep::Rng qrng(seed ^ 0x51F7ull);
  s.queries = brep::MakeQueries(qrng, s.data, 100, 0.1);
  s.join_r = Head(s.queries, 8);
  s.per_round = 25;
  s.k = 20;
  s.options = Options(64 * 1024);
  // M is pinned: the M the cost model derives for this stand-in moves with
  // the data seed (4 to 14 at n = 3000 and n = 20000), and every timing
  // moves with it.
  s.options.config.num_partitions = 14;
  s.options.config.forest.pool_pages = 4;
  s.file_backed = true;
  return s;
}

/// The serving mixture: 24 positive clusters, Itakura-Saito, in memory.
Spec ServingIsd(uint64_t seed) {
  Spec s;
  s.name = "serving-isd";
  s.div = Div::kItakuraSaito;
  s.divergence = "itakura_saito";
  const size_t n = 2000;
  brep::MixtureSpec m;
  m.n = n + 100;
  m.d = 100;
  m.num_clusters = 24;
  m.positive = true;
  m.positive_scale = 1.5;
  m.cluster_std = 0.4;
  brep::Rng rng(seed);
  Split(brep::MakeMixture(rng, m), n, &s);
  brep::Rng qrng(seed ^ 0x15Dull);
  s.queries = brep::MakeQueries(qrng, s.data, 100, 0.1, true);
  s.join_r = Head(s.queries, 10);
  s.k = 20;
  s.options = Options(32 * 1024);
  return s;
}

/// A smaller ED index under a WAL, with reads interleaved into a seeded
/// insert/delete sequence.
Spec ChurnWal(uint64_t seed) {
  Spec s;
  s.name = "churn-wal";
  s.div = Div::kExponential;
  s.divergence = "exponential";
  const size_t n = 3000, d = 64;
  s.writes = 300;
  brep::Rng rng(seed);
  Split(brep::MakeSiftLike(rng, n + 1000, d), n, &s);
  brep::Rng qrng(seed ^ 0xC4u);
  s.queries = brep::MakeQueries(qrng, s.data, 100, 0.1);
  s.join_r = Head(s.queries, 10);
  s.k = 20;
  s.options = Options(32 * 1024);
  s.churn = true;
  return s;
}

/// The kNN-join shape: squared L2, d = 20, R of 400 rows against S.
Spec JoinL2(uint64_t seed) {
  Spec s;
  s.name = "join-l2";
  s.div = Div::kSquaredL2;
  s.divergence = "squared_l2";
  const size_t n = 8000;
  brep::MixtureSpec m;
  m.n = n + 100;
  m.d = 20;
  m.num_clusters = 24;
  m.center_lo = -1.5;
  m.center_hi = 1.5;
  m.cluster_std = 0.5;
  brep::Rng rng(seed);
  Split(brep::MakeMixture(rng, m), n, &s);
  brep::Rng qrng(seed ^ 0x1011ull);
  s.join_r = brep::MakeQueries(qrng, s.data, 400, 0.1, false);
  s.queries = Head(s.join_r, 100);
  s.k = 10;
  s.options = Options(32 * 1024);
  return s;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (key == "--tmp") {
      a->tmp_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->tmp_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sift-file|serving-isd|"
                 "churn-wal|join-l2> --seed <n> --seconds <s> --trace <0|1> "
                 "--tmp <dir>\n");
    return 2;
  }
  Spec spec;
  if (args.workload == "sift-file") {
    spec = SiftFile(args.seed);
  } else if (args.workload == "serving-isd") {
    spec = ServingIsd(args.seed);
  } else if (args.workload == "churn-wal") {
    spec = ChurnWal(args.seed);
  } else if (args.workload == "join-l2") {
    spec = JoinL2(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.tmp_dir);
  Report report;
  const int code = RunWorkload(std::move(spec), args, &report);
  if (code != 0) return code;
  report.PrintJson();
  return 0;
}
