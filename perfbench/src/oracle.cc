#include "oracle.h"

#include <cmath>
#include <unordered_set>

namespace perfbench {

namespace {

/// phi terms of one vector: e^t (exponential), log t (Itakura-Saito).
std::vector<long double> Terms(Div div, std::span<const double> v) {
  std::vector<long double> out;
  if (div == Div::kSquaredL2) return out;
  out.resize(v.size());
  for (size_t j = 0; j < v.size(); ++j) {
    const long double t = v[j];
    out[j] = div == Div::kExponential ? std::exp(t) : std::log(t);
  }
  return out;
}

/// D(x, y) from the coordinates and their precomputed terms.
long double FromTerms(Div div, std::span<const double> x,
                      const std::vector<long double>& tx,
                      std::span<const double> y,
                      const std::vector<long double>& ty) {
  long double sum = 0.0L;
  for (size_t j = 0; j < x.size(); ++j) {
    const long double a = x[j];
    const long double b = y[j];
    switch (div) {
      case Div::kExponential:
        sum += tx[j] - ty[j] - (a - b) * ty[j];
        break;
      case Div::kItakuraSaito:
        sum += a / b - (tx[j] - ty[j]) - 1.0L;
        break;
      case Div::kSquaredL2:
        sum += (a - b) * (a - b);
        break;
    }
  }
  return sum;
}

}  // namespace

long double RefDivergence(Div div, std::span<const double> x,
                          std::span<const double> y) {
  return FromTerms(div, x, Terms(div, x), y, Terms(div, y));
}

void Prepare(Div div, PointSet* points) {
  points->pre.assign(points->rows.size(), {});
  for (size_t id = 0; id < points->rows.size(); ++id) {
    points->pre[id] = Terms(div, points->rows[id]);
  }
}

std::string CheckKnn(Div div, std::span<const brep::Neighbor> answer,
                     std::span<const double> y, size_t k,
                     const PointSet& points) {
  const size_t want = std::min(k, points.live);
  if (answer.size() != want) {
    return "answer holds " + std::to_string(answer.size()) + " ids, want " +
           std::to_string(want);
  }
  const std::vector<long double> ty = Terms(div, y);
  auto ref_of = [&](uint32_t id) {
    return FromTerms(div, points.rows[id], points.pre[id], y, ty);
  };
  std::unordered_set<uint32_t> in_answer;
  for (size_t i = 0; i < answer.size(); ++i) {
    const brep::Neighbor& nb = answer[i];
    if (i > 0 && answer[i] < answer[i - 1]) {
      return "answer not sorted by (distance, id)";
    }
    if (nb.id >= points.rows.size() || points.rows[nb.id].empty()) {
      return "id " + std::to_string(nb.id) + " is not live";
    }
    if (!in_answer.insert(nb.id).second) {
      return "id " + std::to_string(nb.id) + " reported twice";
    }
    const long double ref = ref_of(nb.id);
    if (std::fabs(double(nb.distance - ref)) > Tol(ref)) {
      return "id " + std::to_string(nb.id) + " reported at " +
             std::to_string(nb.distance) + ", reference " +
             std::to_string(double(ref));
    }
  }
  if (answer.empty()) return "";
  const double kth = answer.back().distance;
  for (uint32_t id = 0; id < points.rows.size(); ++id) {
    if (points.rows[id].empty() || in_answer.count(id) > 0) continue;
    const long double ref = ref_of(id);
    if (ref < kth - Tol(kth)) {
      return "id " + std::to_string(id) + " at " + std::to_string(double(ref)) +
             " lies below the reported k-th distance " + std::to_string(kth);
    }
  }
  return "";
}

std::string CheckDistances(
    Div div, std::span<const brep::Neighbor> answer, std::span<const double> y,
    size_t k, const std::vector<std::vector<std::vector<double>>>& history) {
  if (answer.size() != k) {
    return "answer holds " + std::to_string(answer.size()) + " ids, want " +
           std::to_string(k);
  }
  std::unordered_set<uint32_t> seen;
  for (const brep::Neighbor& nb : answer) {
    if (nb.id >= history.size() || !seen.insert(nb.id).second) {
      return "id " + std::to_string(nb.id) + " unknown or reported twice";
    }
    bool match = false;
    for (const std::vector<double>& x : history[nb.id]) {
      const long double ref = RefDivergence(div, x, y);
      match = match || std::fabs(double(nb.distance - ref)) <= Tol(ref);
    }
    if (!match) {
      return "id " + std::to_string(nb.id) + " reported at " +
             std::to_string(nb.distance) +
             ", which no point it ever held has";
    }
  }
  return "";
}

}  // namespace perfbench
