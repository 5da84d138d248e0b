#pragma once
// Outside-in instrumentation. Both classes sit between a trainer and the
// object it would normally call and forward every call unchanged:
//
//  * TimingModel decorates an EmbeddingModel. It is used only on traced
//    runs, forwards every call, and times train_batch and untrain_batch;
//    for the fpga backend it also accumulates the accelerator's
//    simulated compute, DMA and byte counts per batch.
//  * RecordingSink decorates the ShardedEmbeddingStore as the trainers'
//    SnapshotSink. It is used on every run, because freshness needs the
//    time of every publish; the per-call durations are taken only on
//    traced runs.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "fpga/accelerator.hpp"
#include "report.hpp"
#include "serve/sharded_store.hpp"

namespace perfbench {

class TimingModel final : public seqge::EmbeddingModel {
 public:
  explicit TimingModel(seqge::EmbeddingModel& inner);

  double train_walk(std::span<const seqge::NodeId> walk, std::size_t window,
                    const seqge::NegativeSampler& sampler, std::size_t ns,
                    seqge::NegativeMode mode, seqge::Rng& rng) override;
  double train_batch(const seqge::WalkBatch& batch, std::size_t window,
                     const seqge::NegativeSampler& sampler, std::size_t ns,
                     seqge::NegativeMode mode) override;
  bool untrain_batch(const seqge::WalkBatch& batch, std::size_t window,
                     const seqge::NegativeSampler& sampler, std::size_t ns,
                     seqge::NegativeMode mode) override;
  [[nodiscard]] seqge::MatrixF extract_embedding() const override;
  void extract_rows(std::span<const seqge::NodeId> nodes,
                    seqge::MatrixF& out) const override;
  [[nodiscard]] std::size_t dims() const override { return inner_.dims(); }
  [[nodiscard]] std::size_t num_nodes() const override {
    return inner_.num_nodes();
  }
  [[nodiscard]] std::size_t model_bytes() const override {
    return inner_.model_bytes();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  struct Totals {
    bool any_batch = false;
    Clock::time_point first_batch{};  ///< entry of the first train_batch
    double train_s = 0.0;
    std::uint64_t walks_trained = 0;
    double untrain_s = 0.0;
    std::uint64_t walks_untrain_attempted = 0;
    std::uint64_t walks_unlearned = 0;
    // fpga only: simulated accelerator time, summed over batches.
    std::uint64_t sim_walks = 0;
    double sim_total_us = 0.0;
    double sim_compute_us = 0.0;
    double sim_dma_us = 0.0;
    double sim_bytes = 0.0;
  };
  [[nodiscard]] const Totals& totals() const noexcept { return t_; }

 private:
  seqge::EmbeddingModel& inner_;
  const seqge::fpga::Accelerator* fpga_;  ///< inner_ when it is the fpga
  Totals t_;
};

/// One store publish.
struct PublishRecord {
  enum class Kind { kFull, kDelta, kTombstone } kind = Kind::kFull;
  Clock::time_point done{};
  double duration_us = 0.0;     ///< traced runs only
  std::uint64_t rows_copied = 0;
  std::size_t tombstones = 0;  ///< nodes in a tombstone publish's set
};

class RecordingSink final : public seqge::SnapshotSink {
 public:
  RecordingSink(seqge::serve::ShardedEmbeddingStore& store, bool timed)
      : store_(store), timed_(timed) {}

  void on_snapshot(const seqge::EmbeddingModel& model,
                   const seqge::TrainStats& stats) override;
  void on_delta(const seqge::EmbeddingModel& model,
                const seqge::TrainStats& stats,
                std::span<const seqge::NodeId> touched_rows) override;
  void on_tombstone(std::span<const seqge::NodeId> nodes) override;

  [[nodiscard]] const std::vector<PublishRecord>& records() const noexcept {
    return records_;
  }
  /// Total time spent inside the store (traced runs only).
  [[nodiscard]] double busy_s() const noexcept { return busy_s_; }

 private:
  void record(PublishRecord::Kind kind, Clock::time_point t0,
              std::uint64_t version_before, std::uint64_t copied_before,
              std::size_t tombstones = 0);

  seqge::serve::ShardedEmbeddingStore& store_;
  bool timed_;
  std::vector<PublishRecord> records_;
  double busy_s_ = 0.0;
};

/// Per-layer numbers derived from the store's publish log, filled into
/// `out` under the store.* names.
void report_store_layer(const RecordingSink& sink,
                        std::map<std::string, Metric>& out);
/// Model-side per-layer numbers (model.*, fpga.*) from a TimingModel.
void report_model_layer(const TimingModel& model,
                        std::map<std::string, Metric>& out);

}  // namespace perfbench
