#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

using seqge::MatrixF;
using seqge::NodeId;
using seqge::serve::Neighbor;

namespace {
// Served cosines are float dot products of float-normalised rows; the
// brute force works in double. 1e-4 is far above that rounding and far
// below the gap a wrong neighbour leaves.
constexpr double kScoreTol = 1e-4;
}  // namespace

BruteForce::BruteForce(const MatrixF& rows, std::vector<std::uint8_t> dead)
    : unit_(rows.rows()), dead_(std::move(dead)) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const auto row = rows.row(r);
    double norm = 0.0;
    for (float x : row) norm += static_cast<double>(x) * x;
    norm = std::sqrt(norm);
    unit_[r].resize(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      unit_[r][c] = norm > 0.0 ? row[c] / norm : 0.0;
    }
  }
}

double BruteForce::cosine(NodeId a, NodeId b) const {
  double s = 0.0;
  for (std::size_t c = 0; c < unit_[a].size(); ++c) {
    s += unit_[a][c] * unit_[b][c];
  }
  return s;
}

std::vector<double> BruteForce::best_scores(NodeId u, std::size_t k) const {
  std::vector<double> all;
  all.reserve(unit_.size());
  for (NodeId v = 0; v < unit_.size(); ++v) {
    if (v != u && !dead(v)) all.push_back(cosine(u, v));
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), std::greater<>());
  all.resize(k);
  return all;
}

std::string check_f1_above_majority(double f1, double majority_share,
                                    double margin) {
  if (f1 >= majority_share + margin) return {};
  std::ostringstream os;
  os << "micro-F1 " << f1 << " is not clearly above the majority-class share "
     << majority_share << " (+" << margin << ")";
  return os.str();
}

std::string check_f1_within(double f1, double reference, double margin) {
  if (std::abs(f1 - reference) <= margin) return {};
  std::ostringstream os;
  os << "micro-F1 " << f1 << " is not within " << margin
     << " of the float reference " << reference;
  return os.str();
}

std::string check_rows_equal(const MatrixF& store_rows,
                             const MatrixF& model_rows,
                             std::span<const std::uint8_t> skip) {
  if (store_rows.rows() != model_rows.rows() ||
      store_rows.cols() != model_rows.cols()) {
    return "store and model embeddings differ in shape";
  }
  for (std::size_t r = 0; r < store_rows.rows(); ++r) {
    if (!skip.empty() && skip[r] != 0) continue;
    if (std::memcmp(store_rows.row(r).data(), model_rows.row(r).data(),
                    store_rows.cols() * sizeof(float)) != 0) {
      return "store row " + std::to_string(r) +
             " is not bit-equal to the model's row";
    }
  }
  return {};
}

std::string check_topk(const BruteForce& bf, NodeId u, std::size_t k,
                       std::span<const Neighbor> got) {
  const std::vector<double> best = bf.best_scores(u, k);
  const std::string who = "top-" + std::to_string(k) + " of node " +
                          std::to_string(u) + ": ";
  if (got.size() != best.size()) {
    return who + std::to_string(got.size()) + " neighbours, expected " +
           std::to_string(best.size());
  }
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Neighbor& nb = got[i];
    if (nb.node >= bf.size()) return who + "node id out of range";
    if (nb.node == u) return who + "contains the query node";
    if (bf.dead(nb.node)) {
      return who + "contains tombstoned node " + std::to_string(nb.node);
    }
    if (!seen.insert(nb.node).second) return who + "duplicate neighbour";
    if (std::abs(nb.score - bf.cosine(u, nb.node)) > kScoreTol) {
      return who + "score of node " + std::to_string(nb.node) +
             " does not match its cosine";
    }
    if (std::abs(nb.score - best[i]) > kScoreTol) {
      return who + "rank " + std::to_string(i) +
             " is not the brute-force rank-" + std::to_string(i) + " score";
    }
  }
  return {};
}

TombstoneModel::TombstoneModel(std::vector<std::uint32_t> degree)
    : degree_(std::move(degree)), spans_(degree_.size()) {}

void TombstoneModel::insert(NodeId u, NodeId v, std::uint64_t version) {
  gain_edge(u, version);
  gain_edge(v, version);
}

void TombstoneModel::remove(NodeId u, NodeId v, std::uint64_t version) {
  lose_edge(u, version);
  lose_edge(v, version);
}

void TombstoneModel::gain_edge(NodeId v, std::uint64_t version) {
  if (degree_[v]++ == 0 && !spans_[v].empty() &&
      spans_[v].back().until == Span{}.until) {
    spans_[v].back().until = version;
  }
}

void TombstoneModel::lose_edge(NodeId v, std::uint64_t version) {
  if (degree_[v] == 0) {
    throw std::logic_error("schedule deletes an edge of node " +
                           std::to_string(v) + ", which has none");
  }
  if (--degree_[v] == 0) {
    spans_[v].push_back({version, Span{}.until});
    ++deaths_;
  }
}

bool TombstoneModel::dead(NodeId node, std::uint64_t version) const {
  for (const Span& s : spans_[node]) {
    if (version >= s.from && version < s.until) return true;
  }
  return false;
}

std::vector<std::uint8_t> TombstoneModel::dead_now() const {
  std::vector<std::uint8_t> out(degree_.size(), 0);
  for (std::size_t v = 0; v < degree_.size(); ++v) {
    out[v] = !spans_[v].empty() && spans_[v].back().until == Span{}.until;
  }
  return out;
}

std::string check_score(const BruteForce& bf, NodeId u, NodeId v,
                        double got) {
  if (std::abs(got - bf.cosine(u, v)) <= kScoreTol) return {};
  return "score of (" + std::to_string(u) + ", " + std::to_string(v) +
         ") does not match their cosine";
}

std::string check_no_dead(const TombstoneModel& model,
                          std::span<const NodeId> nodes,
                          std::uint64_t version) {
  for (NodeId v : nodes) {
    if (model.dead(v, version)) {
      return "response at version " + std::to_string(version) +
             " contains node " + std::to_string(v) +
             ", which the stream left without edges by that version";
    }
  }
  return {};
}

std::string check_tombstones_equal(std::span<const std::uint8_t> store_dead,
                                   std::span<const std::uint8_t> model_dead) {
  if (store_dead.size() != model_dead.size()) {
    return "store and schedule disagree on the number of nodes";
  }
  for (std::size_t v = 0; v < store_dead.size(); ++v) {
    if ((store_dead[v] != 0) != (model_dead[v] != 0)) {
      return "node " + std::to_string(v) +
             (store_dead[v] != 0 ? " is tombstoned in the store but has edges"
                                 : " has no edges left but is not tombstoned");
    }
  }
  return {};
}

std::string check_versions_monotonic(std::span<const double> sent_s,
                                     std::span<const double> arrived_s,
                                     std::span<const std::uint64_t> version) {
  std::vector<std::size_t> by_arrival(arrived_s.size());
  for (std::size_t i = 0; i < by_arrival.size(); ++i) by_arrival[i] = i;
  std::sort(by_arrival.begin(), by_arrival.end(),
            [&](std::size_t a, std::size_t b) {
              return arrived_s[a] < arrived_s[b];
            });
  std::vector<double> when(by_arrival.size());
  std::vector<std::uint64_t> newest(by_arrival.size());  // running max
  std::uint64_t hi = 0;
  for (std::size_t j = 0; j < by_arrival.size(); ++j) {
    when[j] = arrived_s[by_arrival[j]];
    hi = std::max(hi, version[by_arrival[j]]);
    newest[j] = hi;
  }
  for (std::size_t i = 0; i < sent_s.size(); ++i) {
    const auto before = static_cast<std::size_t>(
        std::lower_bound(when.begin(), when.end(), sent_s[i]) - when.begin());
    if (before > 0 && version[i] < newest[before - 1]) {
      return "connection saw version " + std::to_string(version[i]) +
             " for a request sent after version " +
             std::to_string(newest[before - 1]) + " had arrived";
    }
  }
  return {};
}

std::string check_counts_equal(const char* what, std::uint64_t applied,
                               std::uint64_t scheduled) {
  if (applied == scheduled) return {};
  return std::string(what) + ": " + std::to_string(applied) +
         " applied, " + std::to_string(scheduled) + " scheduled";
}

std::vector<std::string> self_test() {
  std::vector<std::string> bad;
  const auto expect = [&](const char* name, const std::string& clean,
                          const std::string& corrupt) {
    if (!clean.empty()) {
      bad.push_back(std::string(name) + " rejects a clean input: " + clean);
    }
    if (corrupt.empty()) {
      bad.push_back(std::string(name) + " accepts a corrupted input");
    }
  };

  // Six points on the unit circle plus one far-off direction; node 2 is
  // tombstoned.
  MatrixF rows(7, 2);
  const float pts[7][2] = {{1.0f, 0.0f},  {0.9f, 0.1f}, {0.8f, 0.3f},
                           {0.5f, 0.5f},  {0.1f, 0.9f}, {-1.0f, 0.2f},
                           {0.95f, 0.05f}};
  for (std::size_t r = 0; r < 7; ++r) {
    rows(r, 0) = pts[r][0];
    rows(r, 1) = pts[r][1];
  }
  std::vector<std::uint8_t> dead(7, 0);
  dead[2] = 1;
  const BruteForce bf(rows, dead);
  std::vector<Neighbor> good;
  for (NodeId v : {6u, 1u, 3u}) {
    good.push_back({v, static_cast<float>(bf.cosine(0, v))});
  }

  std::vector<Neighbor> wrong_rank = good;  // a worse node in rank 3
  wrong_rank[2] = {4, static_cast<float>(bf.cosine(0, 4))};
  expect("check_topk (corrupted neighbour)", check_topk(bf, 0, 3, good),
         check_topk(bf, 0, 3, wrong_rank));
  std::vector<Neighbor> wrong_score = good;
  wrong_score[0].score += 0.01f;
  expect("check_topk (corrupted score)", check_topk(bf, 0, 3, good),
         check_topk(bf, 0, 3, wrong_score));
  std::vector<Neighbor> with_dead = good;
  with_dead[2] = {2, static_cast<float>(bf.cosine(0, 2))};
  expect("check_topk (tombstoned neighbour)", check_topk(bf, 0, 3, good),
         check_topk(bf, 0, 3, with_dead));

  expect("check_score", check_score(bf, 0, 4, bf.cosine(0, 4)),
         check_score(bf, 0, 4, bf.cosine(0, 3)));

  // Node 0 loses its only edge at version 5 and gains one at version 9;
  // node 3 never had an edge, so it is not dead.
  TombstoneModel deaths({1, 2, 1, 0});
  deaths.remove(0, 1, 5);
  const std::vector<NodeId> live_list = {1, 3};
  const std::vector<NodeId> with_dead_node = {1, 0};
  expect("check_no_dead", check_no_dead(deaths, live_list, 6),
         check_no_dead(deaths, with_dead_node, 6));
  std::vector<std::uint8_t> store_dead = {1, 0, 0, 0};
  const std::vector<std::uint8_t> store_missed = {0, 0, 0, 0};
  expect("check_tombstones_equal",
         check_tombstones_equal(store_dead, deaths.dead_now()),
         check_tombstones_equal(store_missed, deaths.dead_now()));
  deaths.insert(0, 2, 9);
  expect("check_no_dead (revived)",
         check_no_dead(deaths, with_dead_node, 4) +
             check_no_dead(deaths, with_dead_node, 9),
         check_no_dead(deaths, with_dead_node, 8));

  MatrixF flipped = rows;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &flipped(3, 1), sizeof(bits));
  bits ^= 1u;  // one ulp: bit equality, not closeness
  std::memcpy(&flipped(3, 1), &bits, sizeof(bits));
  expect("check_rows_equal", check_rows_equal(rows, rows, {}),
         check_rows_equal(flipped, rows, {}));

  // Request 1 overlaps request 0 and may come back older; request 2 is
  // sent after both answers arrived and must not.
  const std::vector<double> sent = {0.0, 0.5, 3.0};
  const std::vector<double> arrived = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> ok_versions = {5, 4, 5};
  const std::vector<std::uint64_t> stale = {5, 4, 4};
  expect("check_versions_monotonic",
         check_versions_monotonic(sent, arrived, ok_versions),
         check_versions_monotonic(sent, arrived, stale));

  expect("check_f1_above_majority", check_f1_above_majority(0.8, 0.3, 0.1),
         check_f1_above_majority(0.35, 0.3, 0.1));
  expect("check_f1_within", check_f1_within(0.71, 0.72, 0.05),
         check_f1_within(0.60, 0.72, 0.05));
  expect("check_counts_equal", check_counts_equal("inserts", 10, 10),
         check_counts_equal("inserts", 9, 10));
  return bad;
}

}  // namespace perfbench
