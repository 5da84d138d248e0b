#pragma once
// Correctness checks. Each compares the program's output against a
// computation made here, apart from the code under test, or against a
// property the method must have. Every check returns an empty string
// when it holds and a one-line reason when it does not.
//
// self_test() feeds each check one clean and one corrupted input and
// fails unless the check accepts the first and rejects the second, so
// no check can pass vacuously. Every run calls it first.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "serve/query_engine.hpp"

namespace perfbench {

/// Brute-force cosine scorer over a copy of the published rows, in
/// double precision (independent of the serving engine's float SIMD
/// scan and its normalisation code).
class BruteForce {
 public:
  BruteForce(const seqge::MatrixF& rows, std::vector<std::uint8_t> dead);
  [[nodiscard]] double cosine(seqge::NodeId a, seqge::NodeId b) const;
  /// The k best cosine scores to u, excluding u and dead rows.
  [[nodiscard]] std::vector<double> best_scores(seqge::NodeId u,
                                                std::size_t k) const;
  [[nodiscard]] std::size_t size() const noexcept { return unit_.size(); }
  [[nodiscard]] bool dead(seqge::NodeId v) const {
    return !dead_.empty() && dead_[v] != 0;
  }

 private:
  std::vector<std::vector<double>> unit_;
  std::vector<std::uint8_t> dead_;
};

/// Node-classification micro-F1 clearly above the majority-class share.
std::string check_f1_above_majority(double f1, double majority_share,
                                    double margin);
/// The FPGA's micro-F1 within `margin` of the float reference's (Fig. 5).
std::string check_f1_within(double f1, double reference, double margin);
/// Store rows bit-equal to the model's rows (rows with skip[i] != 0 are
/// not compared).
std::string check_rows_equal(const seqge::MatrixF& store_rows,
                             const seqge::MatrixF& model_rows,
                             std::span<const std::uint8_t> skip);
/// A served top-k list is a correct top-k of the brute-force scan: no
/// self, no dead node, no duplicate, each score matches the brute-force
/// cosine of its node, and the i-th score matches the i-th best score.
std::string check_topk(const BruteForce& bf, seqge::NodeId u, std::size_t k,
                       std::span<const seqge::serve::Neighbor> got);
/// The tombstones the store must show, derived from the benchmark's own
/// stream schedule rather than from the trainer: a node is dead from the
/// store version at which a deletion left it without edges until the
/// version at which an insert gave it one again. A node that starts
/// without edges is not dead; only a deletion isolates a node.
class TombstoneModel {
 public:
  /// Degrees of the graph the stream starts from.
  explicit TombstoneModel(std::vector<std::uint32_t> degree);
  /// Apply one scheduled mutation that became visible at `version`.
  /// Throws std::logic_error on a deletion of a node without edges (a
  /// schedule the model cannot describe).
  void insert(seqge::NodeId u, seqge::NodeId v, std::uint64_t version);
  void remove(seqge::NodeId u, seqge::NodeId v, std::uint64_t version);
  /// Whether `node` must be tombstoned at store version `version`.
  [[nodiscard]] bool dead(seqge::NodeId node, std::uint64_t version) const;
  /// How often a deletion left a node without edges.
  [[nodiscard]] std::size_t deaths() const noexcept { return deaths_; }
  /// Nodes dead after the last mutation, as a per-node bitmap.
  [[nodiscard]] std::vector<std::uint8_t> dead_now() const;

 private:
  struct Span {
    std::uint64_t from = 0, until = ~std::uint64_t{0};
  };
  void lose_edge(seqge::NodeId v, std::uint64_t version);
  void gain_edge(seqge::NodeId v, std::uint64_t version);

  std::vector<std::uint32_t> degree_;
  std::vector<std::vector<Span>> spans_;  ///< per node, ascending
  std::size_t deaths_ = 0;
};

/// A served cosine edge score matches the brute-force cosine.
std::string check_score(const BruteForce& bf, seqge::NodeId u,
                        seqge::NodeId v, double got);
/// No node of a response at `version` is dead at that version.
std::string check_no_dead(const TombstoneModel& model,
                          std::span<const seqge::NodeId> nodes,
                          std::uint64_t version);
/// The store's final tombstone bitmap equals the model's dead set.
std::string check_tombstones_equal(std::span<const std::uint8_t> store_dead,
                                   std::span<const std::uint8_t> model_dead);
/// Monotonic reads on one connection: the answer to a request sent
/// after another answer had arrived is at a version no older than that
/// answer's. Inputs are per answered request: when it was sent, when its
/// answer arrived (same clock), and the answer's version. Pipelined
/// requests that overlap may arrive in any order (docs/SERVING.md), so
/// arrival order alone is not required to be monotonic.
std::string check_versions_monotonic(std::span<const double> sent_s,
                                     std::span<const double> arrived_s,
                                     std::span<const std::uint64_t> version);
/// Mutations applied by the trainer equal the mutations scheduled.
std::string check_counts_equal(const char* what, std::uint64_t applied,
                               std::uint64_t scheduled);

/// Run every check on clean and corrupted inputs; returns the failures
/// of the self-test itself (empty when every check behaves).
std::vector<std::string> self_test();

}  // namespace perfbench
