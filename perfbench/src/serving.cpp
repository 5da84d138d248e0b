#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

using seqge::NodeId;
namespace net = seqge::net;
namespace serve = seqge::serve;

namespace {

// bench/bench_net.cpp's traffic model (see serving.hpp).
constexpr double kZipfExponent = 1.1;
constexpr double kTopkShare = 0.70;
constexpr double kScoreShare = 0.15;
constexpr double kTopkBatchShare = 0.10;  // the rest are score batches
constexpr std::size_t kBatchSize = 8;
constexpr double kPhaseSeconds = 0.5;
constexpr std::uint64_t kBurstClump = 8;  // bench_net's 32 / 4 in flight

/// Zipfian node sampler: rank r has mass 1/(r+1)^s, and ranks are
/// scattered over node ids so the hot set is not a contiguous prefix.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  NodeId operator()(seqge::Rng& rng) const {
    const auto rank = static_cast<std::uint64_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform()) -
        cdf_.begin());
    return static_cast<NodeId>(std::min<std::uint64_t>(rank, cdf_.size() - 1) *
                               2654435761u % cdf_.size());
  }

 private:
  std::vector<double> cdf_;
};

/// Due time of request i: evenly spaced in calm phases; in burst phases
/// the same mean rate, but kBurstClump requests share one due time.
double due_time(std::uint64_t i, double rate) {
  const auto per_phase = static_cast<std::uint64_t>(rate * kPhaseSeconds);
  const bool burst = per_phase > 0 && (i / per_phase) % 2 == 1;
  return static_cast<double>(burst ? i - i % kBurstClump : i) / rate;
}

}  // namespace

ServingStack::ServingStack(
    std::shared_ptr<const serve::ShardedEmbeddingStore> store) {
  engine_ = std::make_unique<serve::EmbeddingServer>(std::move(store));
  net_ = std::make_unique<net::Server>(*engine_);
  net_->start();
}

ServingStack::~ServingStack() {
  net_->stop();
  engine_->drain();
}

double QueryLog::first_seen(std::uint64_t v) const {
  const auto it = std::lower_bound(arrive_max.begin(), arrive_max.end(), v);
  return it == arrive_max.end() ? -1.0 : arrive_s[it - arrive_max.begin()];
}

QueryLog run_open_loop(std::uint16_t port, const QueryPlan& plan,
                       Clock::time_point t0,
                       const std::atomic<std::uint64_t>& until_version,
                       serve::EmbeddingServer& engine) {
  QueryLog log;
  net::ClientConfig ccfg;
  ccfg.recv_timeout_ms = 20000;
  net::Client client("127.0.0.1", port, ccfg);

  // due[i] is written by the sender before request i+1 goes out and
  // read by the receiver only after both threads joined.
  const std::size_t cap =
      static_cast<std::size_t>(plan.rate_qps * plan.max_seconds) + 1;
  std::vector<double> due(cap, 0.0), sent_at(cap, 0.0), done(cap, -1.0);
  std::vector<std::uint64_t> version_of(cap, 0);
  std::vector<std::uint8_t> status(cap, 0xff);
  // The receiver blocks in recv() while an answer is outstanding and on
  // this condition variable while none is.
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t sent = 0;     // guarded by mu
  bool sender_done = false;   // guarded by mu
  std::atomic<bool> reached_version{false};
  std::vector<std::string> receiver_problems;

  std::thread receiver([&] {
    std::uint64_t received = 0;
    try {
      for (;;) {
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return received < sent || sender_done; });
          if (received == sent) break;  // sender done, all answered
        }
        const net::Response resp = client.recv();
        const double now = seconds_between(t0, Clock::now());
        ++received;
        if (resp.id == 0 || resp.id > cap) {
          receiver_problems.push_back("answer with an unknown correlation id");
          continue;
        }
        done[resp.id - 1] = now;
        status[resp.id - 1] = static_cast<std::uint8_t>(resp.status);
        version_of[resp.id - 1] = resp.version;
        if (resp.status != net::Status::kOk) continue;
        log.arrive_s.push_back(now);
        log.arrive_version.push_back(resp.version);
        if (resp.version >= until_version.load(std::memory_order_acquire)) {
          reached_version.store(true, std::memory_order_release);
        }
        const auto keep = [&](const std::vector<serve::Neighbor>& list) {
          log.topk_version.push_back(resp.version);
          std::vector<NodeId> nodes;
          nodes.reserve(list.size());
          for (const auto& nb : list) nodes.push_back(nb.node);
          log.topk_nodes.push_back(std::move(nodes));
        };
        if (resp.type == net::MsgType::kTopK) keep(resp.neighbors);
        for (const auto& list : resp.batch) keep(list);
      }
    } catch (const std::exception& e) {
      receiver_problems.push_back(std::string("receiver: ") + e.what());
    }
  });

  seqge::Rng rng(plan.seed);
  const Zipf zipf(plan.nodes, kZipfExponent);
  std::vector<NodeId> batch(kBatchSize);
  std::vector<std::pair<NodeId, NodeId>> pairs(kBatchSize);
  std::uint64_t i = 0;
  try {
    for (;; ++i) {
      const double due_s = due_time(i, plan.rate_qps);
      if (i >= cap || due_s >= plan.max_seconds) break;
      if (due_s >= plan.min_seconds &&
          reached_version.load(std::memory_order_acquire)) {
        break;
      }
      wait_until(t0, due_s);
      const double mix = rng.uniform();
      due[i] = due_s;
      sent_at[i] = seconds_between(t0, Clock::now());
      std::uint64_t id = 0;
      if (mix < kTopkShare) {
        id = client.send_topk(zipf(rng), plan.k);
        ++log.topk_sent;
      } else if (mix < kTopkShare + kScoreShare) {
        const NodeId u = zipf(rng);
        id = client.send_score(u, static_cast<NodeId>(rng.bounded(plan.nodes)),
                               seqge::EdgeScore::kCosine);
      } else if (mix < kTopkShare + kScoreShare + kTopkBatchShare) {
        for (NodeId& u : batch) u = zipf(rng);
        id = client.send_topk_batch(batch, plan.k);
      } else {
        for (auto& [u, v] : pairs) {
          u = zipf(rng);
          v = static_cast<NodeId>(rng.bounded(plan.nodes));
        }
        id = client.send_score_batch(pairs, seqge::EdgeScore::kCosine);
      }
      if (id != i + 1) {
        log.problems.push_back("client assigned ids out of send order");
      }
      {
        std::lock_guard lock(mu);
        sent = i + 1;
      }
      cv.notify_one();
      if (plan.sample_queue_depth) {
        log.queue_depth_max = std::max(log.queue_depth_max,
                                       engine.queue_depth());
      }
    }
  } catch (const std::exception& e) {
    log.problems.push_back(std::string("sender: ") + e.what());
  }
  {
    std::lock_guard lock(mu);
    sender_done = true;
  }
  cv.notify_one();
  receiver.join();
  log.problems.insert(log.problems.end(), receiver_problems.begin(),
                      receiver_problems.end());
  log.arrive_max.resize(log.arrive_version.size());
  std::uint64_t hi = 0;
  for (std::size_t j = 0; j < log.arrive_version.size(); ++j) {
    hi = std::max(hi, log.arrive_version[j]);
    log.arrive_max[j] = hi;
  }

  log.sent = sent;
  for (std::uint64_t j = 0; j < log.sent; ++j) {
    log.sender_late_ms.push_back((sent_at[j] - due[j]) * 1e3);
    if (status[j] == static_cast<std::uint8_t>(net::Status::kOk)) {
      log.due_s.push_back(due[j]);
      log.latency_ms.push_back((done[j] - due[j]) * 1e3);
      log.ok_sent_s.push_back(sent_at[j]);
      log.ok_arrived_s.push_back(done[j]);
      log.ok_version.push_back(version_of[j]);
    } else {
      // A refused or unanswered query misses every latency limit.
      ++log.failed;
      log.due_s.push_back(due[j]);
      log.latency_ms.push_back(plan.max_seconds * 1e3);
    }
  }
  return log;
}

void check_live_answers(const QueryLog& log, const TombstoneModel& deaths,
                        Report& report) {
  for (const std::string& p : log.problems) report.failures.push_back(p);
  report.check(!log.arrive_version.empty(), "no query was answered");
  const std::string mono = check_versions_monotonic(
      log.ok_sent_s, log.ok_arrived_s, log.ok_version);
  report.check(mono.empty(), mono);
  for (std::size_t i = 0; i < log.topk_nodes.size(); ++i) {
    const std::string msg =
        check_no_dead(deaths, log.topk_nodes[i], log.topk_version[i]);
    if (!msg.empty()) {
      report.failures.push_back(msg);
      return;
    }
  }
}

std::vector<std::uint8_t> tombstone_bitmap(
    const serve::ShardedEmbeddingStore& store) {
  std::vector<std::uint8_t> dead(store.num_rows(), 0);
  for (const auto& snap : store.view()) {
    for (std::size_t r = 0; r < snap->num_rows(); ++r) {
      if (snap->tombstoned(r)) dead[snap->row_begin + r] = 1;
    }
  }
  return dead;
}

void check_wire_topk(std::uint16_t port,
                     const serve::ShardedEmbeddingStore& store,
                     std::size_t count, std::uint32_t k, std::uint64_t seed,
                     Report& report) {
  const BruteForce bf(store.materialize(), tombstone_bitmap(store));
  net::ClientConfig ccfg;
  ccfg.recv_timeout_ms = 20000;
  net::Client client("127.0.0.1", port, ccfg);
  seqge::Rng rng(seed);
  const auto node = [&] { return static_cast<NodeId>(rng.bounded(bf.size())); };
  const auto answered = [&](const net::Response& resp) {
    if (resp.status != net::Status::kOk) {
      report.failures.push_back(std::string("wire query answered ") +
                                net::status_name(resp.status));
      return false;
    }
    if (resp.version != store.version()) {
      report.failures.push_back("wire query answered at a stale version");
      return false;
    }
    return true;
  };
  const auto score_ok = [&](NodeId u, NodeId v, double got) {
    const std::string msg = check_score(bf, u, v, got);
    if (!msg.empty()) report.failures.push_back("wire " + msg);
    return msg.empty();
  };
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId u = node();
    const net::Response resp = client.topk(u, k);
    if (!answered(resp)) return;
    std::string msg = check_topk(bf, u, k, resp.neighbors);
    const NodeId v = node();
    const net::Response score =
        client.score(u, v, seqge::EdgeScore::kCosine);
    if (!msg.empty() || !answered(score) || !score_ok(u, v, score.score)) {
      if (!msg.empty()) report.failures.push_back("wire " + msg);
      return;
    }
    if (i % 8 != 0) continue;
    // The batch paths: 8 top-ks in one request, 8 scores in one request.
    std::vector<NodeId> us(8);
    std::vector<std::pair<NodeId, NodeId>> pairs(8);
    for (std::size_t j = 0; j < 8; ++j) {
      us[j] = node();
      pairs[j] = {node(), node()};
    }
    const net::Response tb = client.topk_batch(us, k);
    if (!answered(tb)) return;
    if (tb.batch.size() != us.size()) {
      report.failures.push_back("wire top-k batch: wrong number of lists");
      return;
    }
    for (std::size_t j = 0; j < us.size(); ++j) {
      msg = check_topk(bf, us[j], k, tb.batch[j]);
      if (!msg.empty()) {
        report.failures.push_back("wire batch " + msg);
        return;
      }
    }
    const net::Response sb =
        client.score_batch(pairs, seqge::EdgeScore::kCosine);
    if (!answered(sb)) return;
    if (sb.scores.size() != pairs.size()) {
      report.failures.push_back("wire score batch: wrong number of scores");
      return;
    }
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      if (!score_ok(pairs[j].first, pairs[j].second, sb.scores[j])) return;
    }
  }
}

std::uint64_t coalesced_requests_total() {
  const seqge::obs::Counter* c = seqge::obs::Registry::global().find_counter(
      "seqge_net_coalesced_requests_total");
  return c == nullptr ? 0 : c->value();
}

void report_queries(const std::vector<QueryLog>& logs, Report& report) {
  std::vector<double> all, window_p99, window, late;
  OpCount& q = report.ops["queries"];
  for (const QueryLog& log : logs) {
    q.attempted += log.sent;
    q.failed += log.failed;
    all.insert(all.end(), log.latency_ms.begin(), log.latency_ms.end());
    late.insert(late.end(), log.sender_late_ms.begin(),
                log.sender_late_ms.end());
    // p99 per one-second window of due times: a stall moves the p99 of
    // the windows it touches, not every window's.
    for (std::size_t i = 0; i < log.latency_ms.size(); ++i) {
      window.push_back(log.latency_ms[i]);
      const bool last = i + 1 == log.latency_ms.size();
      if (last || std::floor(log.due_s[i + 1]) != std::floor(log.due_s[i])) {
        // Only full windows: ten samples beyond the p99.
        if (window.size() >= 1000) {
          window_p99.push_back(seqge::percentile(window, 0.99));
        }
        window.clear();
      }
    }
  }
  if (window_p99.empty()) window_p99.push_back(seqge::percentile(all, 0.99));
  // Reported, not gated: on a shared host both move by more than any
  // usable bound between runs (README.md, "Choices and what is not
  // gated").
  report.notes.push_back("query_p50_ms " + std::to_string(seqge::percentile(all, 0.5)) +
                         ", query_p99_ms " +
                         std::to_string(seqge::median(window_p99)) +
                         " (median of one-second windows), sender late p99 " +
                         std::to_string(seqge::percentile(late, 0.99)) +
                         " ms");
}

void report_serving_layers(const QueryLog& log, serve::EmbeddingServer& engine,
                           std::uint64_t coalesced_requests, Report& report) {
  const serve::LatencySummary lat = engine.latency();
  report.layer["engine.answer_p50_ms"] = {lat.p50_us / 1e3, "ms"};
  report.layer["engine.answer_p99_ms"] = {lat.p99_us / 1e3, "ms"};
  report.layer["engine.rebuilds"] = {
      static_cast<double>(engine.engine_rebuilds()), "count"};
  report.layer["engine.queue_depth_max"] = {
      static_cast<double>(log.queue_depth_max), "count"};
  report.layer["net.coalesced_share"] = {
      log.topk_sent == 0 ? 0.0
                         : static_cast<double>(coalesced_requests) /
                               static_cast<double>(log.topk_sent),
      "ratio"};
  report.layer["net.frontend_p50_ms"] = {
      seqge::percentile(log.latency_ms, 0.5) - lat.p50_us / 1e3, "ms"};
}

}  // namespace perfbench
