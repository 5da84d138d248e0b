// seqge_perfbench: one run of one workload.
//
//   seqge_perfbench --workload batch_all|seq_fpga|iot_serve --seed N
//                   --seconds S --trace 0|1
//   seqge_perfbench --self-test
//
// Prints the operations attempted and failed per kind, reference notes,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also prints its own end-to-end figures on an
// "e2e_traced" line, which steadiness.py compares with untraced runs to
// report the tracing overhead. Exits 1 when a correctness check fails
// and 2 on a usage error.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "checks.hpp"
#include "linalg/simd.hpp"
#include "report.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// Must match BENCHMARK.json.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "walks_per_s",
                                 "micro_f1", "freshness_p50_ms"};
const char* const kPerLayer[][2] = {
    {"walk.corpus_s", "s"},
    {"walk.consumer_wait_s", "s"},
    {"model.train_us_per_walk", "us"},
    {"model.untrain_us_per_walk", "us"},
    {"model.walks_trained", "count"},
    {"model.walks_unlearned", "count"},
    {"fpga.host_us_per_walk", "us"},
    {"fpga.sim_us_per_walk", "us"},
    {"fpga.sim_compute_us_per_walk", "us"},
    {"fpga.sim_dma_us_per_walk", "us"},
    {"fpga.sim_bytes_per_walk", "bytes"},
    {"stream.insert_us_p50", "us"},
    {"stream.insert_us_p99", "us"},
    {"stream.delete_us_p50", "us"},
    {"stream.delete_us_p99", "us"},
    {"stream.exact_unlearn_share", "ratio"},
    {"stream.lateness_p99_ms", "ms"},
    {"store.publish_us_p50", "us"},
    {"store.publish_us_p99", "us"},
    {"store.rows_copied_per_publish", "rows"},
    {"store.tombstone_us_p50", "us"},
    {"engine.answer_p50_ms", "ms"},
    {"engine.answer_p99_ms", "ms"},
    {"engine.rebuilds", "count"},
    {"engine.queue_depth_max", "count"},
    {"net.coalesced_share", "ratio"},
    {"net.frontend_p50_ms", "ms"},
};

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "seqge_perfbench: %s\n"
               "usage: seqge_perfbench --workload batch_all|seq_fpga|"
               "iot_serve --seed N --seconds S --trace 0|1\n"
               "       seqge_perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test_only = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }

  // The checks must be able to fail before their passing means anything.
  const std::vector<std::string> broken = self_test();
  for (const std::string& b : broken) {
    std::fprintf(stderr, "self-test: %s\n", b.c_str());
  }
  if (self_test_only) {
    std::printf("self-test: %s\n", broken.empty() ? "every check accepts "
                                                    "clean and rejects "
                                                    "corrupted input"
                                                  : "FAILED");
    return broken.empty() ? 0 : 1;
  }
  if (!broken.empty()) return 1;
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Report report;
  try {
    if (opt.workload == "batch_all") {
      report = run_batch_all(opt);
    } else if (opt.workload == "seq_fpga") {
      report = run_seq_fpga(opt);
    } else if (opt.workload == "iot_serve") {
      report = run_iot_serve(opt);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "seqge_perfbench: %s\n", e.what());
    return 1;
  }
  report.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  for (const char* name : kEndToEnd) {
    const auto it = report.e2e.find(name);
    report.check(it != report.e2e.end() && std::isfinite(it->second.value) &&
                     it->second.value > 0.0,
                 std::string("end-to-end metric ") + name +
                     " missing or not positive");
  }
  std::map<std::string, Metric> layer;
  if (opt.trace) {
    // Layers a workload does not exercise read 0.
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = report.layer.find(name);
      layer[name] = it != report.layer.end() ? it->second : Metric{0.0, unit};
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const char* kind : {"walks", "mutations", "queries"}) {
    const OpCount c = report.ops[kind];
    std::printf("ops %s attempted=%llu failed=%llu\n", kind,
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  std::printf("machine nproc=%u isa=%s\n", std::thread::hardware_concurrency(),
              seqge::simd::isa_name());
  for (const std::string& note : report.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (opt.trace) std::printf("e2e_traced %s\n", json_metrics(report.e2e).c_str());
  const bool correct = report.failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      json_metrics(opt.trace ? layer : report.e2e).c_str());
  return correct ? 0 : 1;
}
