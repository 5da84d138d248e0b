#pragma once
// The serving half of every workload: an EmbeddingServer plus a wire
// net::Server over a ShardedEmbeddingStore, and the benchmark's own
// open-loop wire client.
//
// The client sends on a fixed schedule whatever the server does, and
// times each answer from its due time, so a stall also charges the
// requests queued behind it. The traffic is the repository's serving
// traffic model (bench/bench_net.cpp): Zipf(1.1) hot-key skew, 70% top-k,
// 15% edge score, 10% batches of 8 top-ks and 5% batches of 8 scores,
// alternating calm and burst phases of 500 ms. bench_net is closed-loop
// with 4 requests in flight when calm and 32 in a burst; here a burst
// phase keeps the mean rate but sends its requests in clumps of 8. One connection,
// two threads: the sending thread only calls Client::send_* and the
// receiving thread only Client::recv(); the two touch disjoint client
// state, and correlation ids are assigned in send order (1, 2, ...), so
// the receiver maps an answer back to its due time without sharing
// anything with the sender.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "checks.hpp"
#include "report.hpp"
#include "serve/embedding_server.hpp"
#include "serve/sharded_store.hpp"

namespace perfbench {

class ServingStack {
 public:
  explicit ServingStack(
      std::shared_ptr<const seqge::serve::ShardedEmbeddingStore> store);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return net_->port(); }
  [[nodiscard]] seqge::serve::EmbeddingServer& engine() noexcept {
    return *engine_;
  }

 private:
  std::unique_ptr<seqge::serve::EmbeddingServer> engine_;
  std::unique_ptr<seqge::net::Server> net_;
};

struct QueryPlan {
  double rate_qps = 1000.0;
  /// Send for at least this long after t0 ...
  double min_seconds = 1.0;
  /// ... then on until an answer at version >= until_version arrived,
  /// but never past this.
  double max_seconds = 60.0;
  std::uint32_t k = 10;
  std::size_t nodes = 0;
  std::uint64_t seed = 1;
  bool sample_queue_depth = false;  ///< traced runs only
};

struct QueryLog {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  ///< non-OK status or no answer
  std::uint64_t topk_sent = 0;  ///< single top-k requests (coalescable)
  /// Every request in send order: due time since t0, and latency from
  /// the due time (failed requests count the phase's whole length).
  std::vector<double> due_s, latency_ms;
  /// How late the sender sent each request, in send order.
  std::vector<double> sender_late_ms;
  /// OK answers, per request in send order: send and arrival time
  /// since t0 and version (the monotonic-reads check).
  std::vector<double> ok_sent_s, ok_arrived_s;
  std::vector<std::uint64_t> ok_version;
  /// OK answers in arrival order: arrival time since t0 and version.
  std::vector<double> arrive_s;
  std::vector<std::uint64_t> arrive_version;
  /// Running maximum of arrive_version (what first_seen searches).
  std::vector<std::uint64_t> arrive_max;
  /// Top-k lists kept for the tombstone check, one per single top-k
  /// answer and one per list of a batch answer: version + neighbours.
  std::vector<std::uint64_t> topk_version;
  std::vector<std::vector<seqge::NodeId>> topk_nodes;
  std::vector<std::string> problems;  ///< transport errors, timeouts
  std::size_t queue_depth_max = 0;

  /// First arrival time (s since t0) of an OK answer at a version
  /// >= v; negative when none arrived.
  [[nodiscard]] double first_seen(std::uint64_t v) const;
};

/// Drive the open-loop schedule against `port`. `until_version` may be
/// raised by another thread while this runs (the stream's final
/// version is known only once it ends).
QueryLog run_open_loop(std::uint16_t port, const QueryPlan& plan,
                       Clock::time_point t0,
                       const std::atomic<std::uint64_t>& until_version,
                       seqge::serve::EmbeddingServer& engine);

/// Correctness of the live phase: versions per connection never
/// decrease along causal order, no top-k list at version v contains a
/// node the stream schedule had left without edges by v, and every query
/// was answered.
void check_live_answers(const QueryLog& log, const TombstoneModel& deaths,
                        Report& report);

/// With the store quiescent, send `count` top-k queries over the wire,
/// every eighth of them also as a top-k batch and a score batch of 8,
/// and compare each answer with a brute-force cosine scan over the
/// published rows.
void check_wire_topk(std::uint16_t port,
                     const seqge::serve::ShardedEmbeddingStore& store,
                     std::size_t count, std::uint32_t k, std::uint64_t seed,
                     Report& report);

/// Published rows of a quiescent store and its tombstone bitmap.
std::vector<std::uint8_t> tombstone_bitmap(
    const seqge::serve::ShardedEmbeddingStore& store);

/// query_p50_ms over every query of the run's open-loop phases,
/// query_p99_ms as the median of the p99s of their full one-second
/// windows, and the sender's lateness; adds the queries to the run's
/// operation counts.
void report_queries(const std::vector<QueryLog>& logs, Report& report);

/// The serving layers' per-layer metrics (engine.*, net.*) of one phase.
void report_serving_layers(const QueryLog& log,
                           seqge::serve::EmbeddingServer& engine,
                           std::uint64_t coalesced_requests, Report& report);

/// Cumulative wire top-k requests the net front-end coalesced.
std::uint64_t coalesced_requests_total();

}  // namespace perfbench
