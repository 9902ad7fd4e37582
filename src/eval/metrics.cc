#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace simrank::eval {

double RecallOfSet(const std::vector<ScoredVertex>& predicted,
                   const std::vector<ScoredVertex>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<uint32_t> predicted_ids;
  predicted_ids.reserve(predicted.size());
  for (const ScoredVertex& entry : predicted) {
    predicted_ids.insert(entry.vertex);
  }
  size_t hits = 0;
  for (const ScoredVertex& entry : truth) {
    if (predicted_ids.count(entry.vertex) != 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

double PrecisionAtK(const std::vector<ScoredVertex>& predicted,
                    const std::vector<ScoredVertex>& truth, uint32_t k) {
  const size_t truth_k = std::min<size_t>(k, truth.size());
  if (truth_k == 0) return 1.0;
  std::unordered_set<uint32_t> truth_ids;
  for (size_t i = 0; i < truth_k; ++i) truth_ids.insert(truth[i].vertex);
  const size_t predicted_k = std::min<size_t>(k, predicted.size());
  size_t hits = 0;
  for (size_t i = 0; i < predicted_k; ++i) {
    if (truth_ids.count(predicted[i].vertex) != 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth_k);
}

double KendallTau(const std::vector<ScoredVertex>& a,
                  const std::vector<ScoredVertex>& b) {
  std::unordered_map<uint32_t, double> score_b;
  score_b.reserve(b.size());
  for (const ScoredVertex& entry : b) score_b[entry.vertex] = entry.score;
  std::vector<std::pair<double, double>> shared;  // (score_a, score_b)
  for (const ScoredVertex& entry : a) {
    auto it = score_b.find(entry.vertex);
    if (it != score_b.end()) shared.push_back({entry.score, it->second});
  }
  const size_t n = shared.size();
  if (n < 2) return 1.0;
  int64_t concordant = 0, discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double da = shared[i].first - shared[j].first;
      const double db = shared[i].second - shared[j].second;
      const double product = da * db;
      if (product > 0) ++concordant;
      else if (product < 0) ++discordant;
    }
  }
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return static_cast<double>(concordant - discordant) / pairs;
}

double NdcgAtK(const std::vector<ScoredVertex>& predicted,
               const std::vector<ScoredVertex>& truth, uint32_t k) {
  if (truth.empty()) return 1.0;
  std::unordered_map<uint32_t, double> relevance;
  relevance.reserve(truth.size());
  for (const ScoredVertex& entry : truth) relevance[entry.vertex] = entry.score;
  auto discount = [](size_t rank) { return 1.0 / std::log2(rank + 2.0); };
  double dcg = 0.0;
  for (size_t i = 0; i < predicted.size() && i < k; ++i) {
    auto it = relevance.find(predicted[i].vertex);
    if (it != relevance.end()) dcg += it->second * discount(i);
  }
  double ideal = 0.0;
  for (size_t i = 0; i < truth.size() && i < k; ++i) {
    ideal += truth[i].score * discount(i);
  }
  return ideal == 0.0 ? 1.0 : dcg / ideal;
}

double LogLogCorrelation(const std::vector<ScoredVertex>& a,
                         const std::vector<ScoredVertex>& b) {
  std::unordered_map<uint32_t, double> score_b;
  score_b.reserve(b.size());
  for (const ScoredVertex& entry : b) score_b[entry.vertex] = entry.score;
  std::vector<std::pair<double, double>> logs;
  for (const ScoredVertex& entry : a) {
    auto it = score_b.find(entry.vertex);
    if (it != score_b.end() && entry.score > 0.0 && it->second > 0.0) {
      logs.push_back({std::log(entry.score), std::log(it->second)});
    }
  }
  const size_t n = logs.size();
  if (n < 2) return 0.0;
  double mean_x = 0.0, mean_y = 0.0;
  for (const auto& [x, y] : logs) {
    mean_x += x;
    mean_y += y;
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (const auto& [x, y] : logs) {
    sxy += (x - mean_x) * (y - mean_y);
    sxx += (x - mean_x) * (x - mean_x);
    syy += (y - mean_y) * (y - mean_y);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<ScoredVertex> HighScoreSet(const std::vector<double>& scores,
                                       double threshold, uint32_t exclude) {
  std::vector<ScoredVertex> result;
  for (size_t v = 0; v < scores.size(); ++v) {
    if (v == exclude) continue;
    if (scores[v] >= threshold) {
      result.push_back({static_cast<uint32_t>(v), scores[v]});
    }
  }
  std::sort(result.begin(), result.end(), ScoredVertexGreater);
  return result;
}

}  // namespace simrank::eval
