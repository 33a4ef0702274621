// Turning a pass into metrics, the conservation line, the stage table, the
// span file, and the final JSON result line.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// q-quantile (0..1) of `values` by nearest rank; 0 for an empty set.
double quantile(std::vector<float> values, double q);
double median(std::vector<double> values);

/// Output-check violations (each one a failed record).
std::uint64_t violations(const PassResult& p);
/// Records offered but not delivered exactly once in FIFO order, plus every
/// violation.
std::uint64_t failed_records(const PassResult& p);
/// Quantile of the generator's wake-up lateness, microseconds.
double gen_late_quantile_us(const PassResult& p, double q);
/// offered - delivered - FIFO violators - named losses (signed).
long long unaccounted(const PassResult& p);

std::vector<Metric> end_to_end_metrics(const PassResult& p, double peak_rss_mb);
/// notice_ns, exs_cpu_ns_per_rec and ism.cpu_ns_per_rec of a pass. They are
/// per-layer metrics: host CPU noise moves them by more than any
/// regression bound (see README.md).
std::vector<Metric> cpu_cost_metrics(const PassResult& p);
/// Per-layer metrics: the CPU costs of the untraced pass, every other layer
/// metric from the traced pass, and trace.overhead_ratio between the two.
std::vector<Metric> per_layer_metrics(const PassResult& traced, const PassResult& untraced);

void print_conservation(std::FILE* f, const char* label, const PassResult& p);
void print_stage_table(std::FILE* f, const std::string& workload, const PassResult& p);
/// One JSON object per line per span; false if the file cannot be written.
bool write_spans(const std::string& path, const std::string& workload, const PassResult& p);

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
