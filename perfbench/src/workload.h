#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// One workload = generated inputs plus how the index is held. Every
// workload runs the same round of facade operations, so every metric means
// the same thing on each of them; what differs is the data, the divergence,
// the storage and whether a writer races the readers.

#include <cstddef>
#include <string>

#include "api/index.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {

struct Spec {
  std::string name;
  Div div = Div::kSquaredL2;
  /// Factory name of the divergence ("exponential", "itakura_saito", ...).
  std::string divergence;
  /// Indexed rows: ids 0..n-1.
  brep::Matrix data;
  /// The single queries, the Parallel batch and the scan queries.
  brep::Matrix queries;
  /// The join's R. Its first rows are the first rows of `queries` (or the
  /// other way round), so the two answer sets overlap and must agree.
  brep::Matrix join_r;
  /// Points the writes insert (cycled).
  brep::Matrix pool;
  size_t k = 20;
  brep::IndexOptions options;
  /// Build, Save to a file and serve from the file reopened via FilePager.
  bool file_backed = false;
  /// WAL (fsync none, checkpointed once at set-up); each round opens with
  /// a seeded insert/delete sequence interleaved with kNN reads.
  bool churn = false;
  /// Queries per round: round r issues queries r*per_round, ... (mod the
  /// query set) singly, as one Parallel batch and through the scan.
  size_t per_round = 25;
  /// Write operations per round. Without churn: writes/2 inserts followed
  /// by deletes of the same ids, so the live set is the same every round.
  /// With churn: an alternating insert/delete sequence drawn from the seed,
  /// with a read after every few writes.
  size_t writes = 40;
};

/// Set up the index several times, run whole rounds for args.seconds,
/// check every answer, and fill the report (end-to-end metrics, or the
/// per-layer metrics when args.trace). Returns the process exit code.
int RunWorkload(Spec spec, const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
