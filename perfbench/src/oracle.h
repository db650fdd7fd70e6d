#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The exactness reference, written apart from the program: closed forms of
// the three divergences the workloads use, evaluated in long double over the
// raw generated rows, and the checks an exact kNN answer must pass.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/top_k.h"

namespace perfbench {

enum class Div { kExponential, kItakuraSaito, kSquaredL2 };

/// D(x, y) = sum_j phi(x_j) - phi(y_j) - phi'(y_j) (x_j - y_j) with
///   exponential:    phi(t) = e^t
///   Itakura-Saito:  phi(t) = -log t   (x/y - log(x/y) - 1 per coordinate)
///   squared L2:     phi(t) = t^2      ((x - y)^2 per coordinate)
long double RefDivergence(Div div, std::span<const double> x,
                          std::span<const double> y);

/// Relative tolerance between a reported distance and the reference. The
/// scale is floored at 1, so distances near 0 are compared absolutely.
inline constexpr double kRelTol = 1e-9;
inline double Tol(long double v) {
  const long double a = v < 0 ? -v : v;
  return kRelTol * double(a > 1.0L ? a : 1.0L);
}

/// The point set a kNN answer is judged against: rows[id] is the point with
/// that id, or empty for an id that is not live.
struct PointSet {
  std::vector<std::span<const double>> rows;
  size_t live = 0;
  /// Per-coordinate phi terms of each live row, in long double (e^x for
  /// the exponential distance, log x for Itakura-Saito); see Prepare.
  std::vector<std::vector<long double>> pre;
};

/// Fill `points->pre`, so the check evaluates no transcendental per
/// (query, point) pair.
void Prepare(Div div, PointSet* points);

/// Empty when `answer` is an exact kNN answer for `y` over `points`:
///  - it holds min(k, live) distinct live ids;
///  - each reported distance matches the reference for its id within Tol;
///  - no live point outside the answer lies below the reported k-th
///    distance by more than Tol (Theorem 3; ties are allowed).
/// Otherwise a one-line reason.
std::string CheckKnn(Div div, std::span<const brep::Neighbor> answer,
                     std::span<const double> y, size_t k,
                     const PointSet& points);

/// Empty when every reported distance matches the reference for some point
/// that id has held (for reads taken while writes change the index).
std::string CheckDistances(
    Div div, std::span<const brep::Neighbor> answer, std::span<const double> y,
    size_t k, const std::vector<std::vector<std::vector<double>>>& history);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
