// brisk_perfbench: runs one named workload and prints its metrics.
//
//   brisk_perfbench --workload steady --seed 7 --seconds 10 --trace 0 [--out-dir DIR]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it twice, untraced then with sampled tracing on, each for
// half the time, and reports the per-layer metrics (CPU costs from the
// untraced pass, everything else from the traced one) plus
// trace.overhead_ratio; it also writes a span file into --out-dir. The last
// line of standard output is always the JSON result object.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"
#include "report.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: brisk_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\nworkloads:");
  for (const auto& name : perfbench::workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wake-up lateness p99 above which the report warns that the host delayed
/// the generator (the latency numbers include that delay).
constexpr double kGenLateWarnUs = 2'000.0;

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_out";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  perfbench::WorkloadSpec spec;
  if (argc % 2 == 0 || !perfbench::find_workload(workload, spec) || seed < 0 ||
      seconds <= 0.0 || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  brisk::Logging::set_level(brisk::LogLevel::warn);
  const auto useed = static_cast<std::uint64_t>(seed);

  std::printf("workload %s: %s, seed %lld, %.3g s, trace %d\n", spec.name.c_str(),
              spec.backlog_per_node > 0 ? "catch-up rounds" : "open loop", seed, seconds, trace);
  if (spec.backlog_per_node == 0) {
    std::printf("offered rate: %.0f records/s (%u every %lld us)\n", spec.rate_per_sec(),
                spec.burst, static_cast<long long>(spec.tick_ns / 1000));
  }

  perfbench::PassResult untraced;
  perfbench::PassResult traced;
  const double pass_seconds = trace == 1 ? seconds / 2 : seconds;
  if (!perfbench::run_pass(spec, useed, pass_seconds, false, untraced)) return 1;
  perfbench::print_conservation(stdout, "untraced", untraced);
  const perfbench::PassResult* reported = &untraced;
  std::vector<perfbench::Metric> metrics;
  if (trace == 1) {
    if (!perfbench::run_pass(spec, useed, pass_seconds, true, traced)) return 1;
    perfbench::print_conservation(stdout, "traced", traced);
    perfbench::print_stage_table(stdout, spec.name, traced);
    const std::string path = out_dir + "/spans-" + spec.name + "-" + std::to_string(seed) + ".jsonl";
    if (!perfbench::write_spans(path, spec.name, traced)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("span file: %s (%zu spans, %llu dropped)\n", path.c_str(), traced.spans.size(),
                static_cast<unsigned long long>(traced.spans_dropped));
    metrics = perfbench::per_layer_metrics(traced, untraced);
    reported = &traced;
  } else {
    metrics = perfbench::end_to_end_metrics(untraced, peak_rss_mb());
    std::printf("CPU costs (per-layer, unbounded):\n");
    for (const auto& m : perfbench::cpu_cost_metrics(untraced)) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::printf("generator lateness: p50 %.1f us, p99 %.1f us\n",
              perfbench::gen_late_quantile_us(*reported, 0.50),
              perfbench::gen_late_quantile_us(*reported, 0.99));
  std::printf("pooled latency: p50 %.1f us, p99 %.1f us over %zu samples\n",
              perfbench::quantile(reported->latency_us, 0.50),
              perfbench::quantile(reported->latency_us, 0.99), reported->latency_us.size());
  const std::size_t latency_samples = reported->latency_us.size();
  for (const auto& m : metrics) {
    std::printf("  %-34s %18.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name == "latency_p99_us") std::printf("  (%zu samples)", latency_samples);
    std::printf("\n");
  }

  bool correct = true;
  for (const perfbench::PassResult* p : {&untraced, &traced}) {
    if (p->offered == 0) continue;
    if (perfbench::violations(*p) != 0) {
      std::printf("output check FAILED: %llu violations\n",
                  static_cast<unsigned long long>(perfbench::violations(*p)));
      correct = false;
    }
    // A generator that is late on most ticks did not hold the schedule:
    // the system saw a different load, so the run is not a result.
    const double late_p50 = perfbench::gen_late_quantile_us(*p, 0.50);
    if (late_p50 > static_cast<double>(spec.tick_ns) / 1e3) {
      std::printf("run INVALID: generator behind schedule (lateness p50 %.0f us > tick %lld us)\n",
                  late_p50, static_cast<long long>(spec.tick_ns / 1000));
      correct = false;
    }
    if (perfbench::gen_late_quantile_us(*p, 0.99) > kGenLateWarnUs) {
      std::printf("warning: host delayed the generator (lateness p99 %.0f us)\n",
                  perfbench::gen_late_quantile_us(*p, 0.99));
    }
  }
  const perfbench::PassResult& r = *reported;
  std::printf("%s\n", perfbench::result_json(correct, r.offered, perfbench::failed_records(r),
                                             metrics)
                          .c_str());
  return 0;
}
