#include "trace.hpp"

#include "walk/walk_batch.hpp"

namespace perfbench {

using seqge::NodeId;

TimingModel::TimingModel(seqge::EmbeddingModel& inner)
    : inner_(inner),
      fpga_(dynamic_cast<const seqge::fpga::Accelerator*>(&inner)) {}

double TimingModel::train_walk(std::span<const NodeId> walk,
                               std::size_t window,
                               const seqge::NegativeSampler& sampler,
                               std::size_t ns, seqge::NegativeMode mode,
                               seqge::Rng& rng) {
  return inner_.train_walk(walk, window, sampler, ns, mode, rng);
}

double TimingModel::train_batch(const seqge::WalkBatch& batch,
                                std::size_t window,
                                const seqge::NegativeSampler& sampler,
                                std::size_t ns, seqge::NegativeMode mode) {
  const auto t0 = Clock::now();
  if (!t_.any_batch) {
    t_.any_batch = true;
    t_.first_batch = t0;
  }
  const std::uint64_t fpga_walks_before =
      fpga_ != nullptr ? fpga_->walks_processed() : 0;
  const double loss = inner_.train_batch(batch, window, sampler, ns, mode);
  t_.train_s += seconds_between(t0, Clock::now());
  t_.walks_trained += batch.num_walks();
  // last_walk_timing() describes the latest batch only when that batch
  // reached the core (walks shorter than the window are skipped).
  if (fpga_ != nullptr && fpga_->walks_processed() > fpga_walks_before) {
    const seqge::fpga::WalkTiming& wt = fpga_->last_walk_timing();
    t_.sim_walks += fpga_->walks_processed() - fpga_walks_before;
    t_.sim_total_us += wt.total_us;
    t_.sim_compute_us += wt.compute_us;
    t_.sim_dma_us += wt.dma_in_us + wt.dma_out_us;
    t_.sim_bytes += static_cast<double>(wt.bytes_in + wt.bytes_out);
  }
  return loss;
}

bool TimingModel::untrain_batch(const seqge::WalkBatch& batch,
                                std::size_t window,
                                const seqge::NegativeSampler& sampler,
                                std::size_t ns, seqge::NegativeMode mode) {
  const auto t0 = Clock::now();
  const bool ok = inner_.untrain_batch(batch, window, sampler, ns, mode);
  t_.untrain_s += seconds_between(t0, Clock::now());
  t_.walks_untrain_attempted += batch.num_walks();
  if (ok) t_.walks_unlearned += batch.num_walks();
  return ok;
}

seqge::MatrixF TimingModel::extract_embedding() const {
  return inner_.extract_embedding();
}

void TimingModel::extract_rows(std::span<const NodeId> nodes,
                               seqge::MatrixF& out) const {
  inner_.extract_rows(nodes, out);
}

// ---------------------------------------------------------------------------

void RecordingSink::record(PublishRecord::Kind kind, Clock::time_point t0,
                           std::uint64_t version_before,
                           std::uint64_t copied_before,
                           std::size_t tombstones) {
  const auto t1 = Clock::now();
  if (timed_) busy_s_ += seconds_between(t0, t1);
  if (store_.version() == version_before) return;  // nothing published
  PublishRecord r;
  r.kind = kind;
  r.done = t1;
  r.duration_us = timed_ ? seconds_between(t0, t1) * 1e6 : 0.0;
  r.rows_copied = store_.rows_copied() - copied_before;
  r.tombstones = tombstones;
  records_.push_back(std::move(r));
}

void RecordingSink::on_snapshot(const seqge::EmbeddingModel& model,
                                const seqge::TrainStats& stats) {
  const auto t0 = Clock::now();
  const std::uint64_t v0 = store_.version(), c0 = store_.rows_copied();
  store_.on_snapshot(model, stats);
  record(PublishRecord::Kind::kFull, t0, v0, c0);
}

void RecordingSink::on_delta(const seqge::EmbeddingModel& model,
                             const seqge::TrainStats& stats,
                             std::span<const NodeId> touched_rows) {
  const auto t0 = Clock::now();
  const std::uint64_t v0 = store_.version(), c0 = store_.rows_copied();
  const std::uint64_t full0 = store_.full_publishes();
  store_.on_delta(model, stats, touched_rows);
  record(store_.full_publishes() != full0 ? PublishRecord::Kind::kFull
                                          : PublishRecord::Kind::kDelta,
         t0, v0, c0);
}

void RecordingSink::on_tombstone(std::span<const NodeId> nodes) {
  const auto t0 = Clock::now();
  const std::uint64_t v0 = store_.version(), c0 = store_.rows_copied();
  store_.on_tombstone(nodes);
  record(PublishRecord::Kind::kTombstone, t0, v0, c0, nodes.size());
}

// ---------------------------------------------------------------------------

void report_store_layer(const RecordingSink& sink,
                        std::map<std::string, Metric>& out) {
  std::vector<double> publish_us, tombstone_us;
  double rows = 0.0;
  for (const PublishRecord& r : sink.records()) {
    if (r.kind == PublishRecord::Kind::kTombstone) {
      tombstone_us.push_back(r.duration_us);
    } else {
      publish_us.push_back(r.duration_us);
      rows += static_cast<double>(r.rows_copied);
    }
  }
  out["store.publish_us_p50"] = {seqge::percentile(publish_us, 0.5), "us"};
  out["store.publish_us_p99"] = {seqge::percentile(publish_us, 0.99), "us"};
  out["store.rows_copied_per_publish"] = {
      publish_us.empty() ? 0.0 : rows / static_cast<double>(publish_us.size()),
      "rows"};
  out["store.tombstone_us_p50"] = {seqge::percentile(tombstone_us, 0.5), "us"};
}

void report_model_layer(const TimingModel& model,
                        std::map<std::string, Metric>& out) {
  const TimingModel::Totals& t = model.totals();
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  out["model.train_us_per_walk"] = {per(t.train_s * 1e6, t.walks_trained),
                                    "us"};
  out["model.untrain_us_per_walk"] = {
      per(t.untrain_s * 1e6, t.walks_untrain_attempted), "us"};
  out["model.walks_trained"] = {static_cast<double>(t.walks_trained),
                                "count"};
  out["model.walks_unlearned"] = {static_cast<double>(t.walks_unlearned),
                                  "count"};
  const bool fpga = t.sim_walks > 0;
  out["fpga.host_us_per_walk"] = {
      fpga ? per(t.train_s * 1e6, t.walks_trained) : 0.0, "us"};
  out["fpga.sim_us_per_walk"] = {per(t.sim_total_us, t.sim_walks), "us"};
  out["fpga.sim_compute_us_per_walk"] = {per(t.sim_compute_us, t.sim_walks),
                                         "us"};
  out["fpga.sim_dma_us_per_walk"] = {per(t.sim_dma_us, t.sim_walks), "us"};
  out["fpga.sim_bytes_per_walk"] = {per(t.sim_bytes, t.sim_walks), "bytes"};
}

}  // namespace perfbench
