#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const char* kStageTokens[PassResult::kStagePairs + 1] = {
    "ring", "drain", "seal", "send", "ingest", "sorter", "merge", "cre", "sink"};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<float> span_durations_us(const PassResult& p, Span::Kind kind, bool per_record) {
  std::vector<float> out;
  for (const Span& s : p.spans) {
    if (s.kind != kind) continue;
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (per_record && s.count > 0) us /= static_cast<double>(s.count);
    out.push_back(static_cast<float>(us));
  }
  return out;
}

}  // namespace

double quantile(std::vector<float> values, double q) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(values.size()) - 1,
                       std::floor(q * static_cast<double>(values.size()))));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
  return values[k];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::uint64_t violations(const PassResult& p) {
  return p.duplicates + p.fifo_violations + p.cre_violations + p.agg_violations +
         p.sample_violations + p.unknown_records;
}

std::uint64_t failed_records(const PassResult& p) {
  const std::uint64_t missing = p.offered > p.delivered ? p.offered - p.delivered : 0;
  // fifo_violations are already part of `missing` (delivered, but not in order).
  return std::min(p.offered, missing + violations(p) - p.fifo_violations);
}

double gen_late_quantile_us(const PassResult& p, double q) {
  std::vector<float> late;
  late.reserve(p.gen_late_ns.size());
  for (std::int64_t ns : p.gen_late_ns) late.push_back(static_cast<float>(ns) / 1e3f);
  return quantile(std::move(late), q);
}

long long unaccounted(const PassResult& p) {
  return static_cast<long long>(p.offered) - static_cast<long long>(p.delivered) -
         static_cast<long long>(p.fifo_violations) - static_cast<long long>(p.named_losses);
}

namespace {

/// Median of the per-window values when there are any, else the pass total.
double windowed(const std::vector<double>& w, double total) {
  return w.empty() ? total : median(w);
}

/// A latency quantile taken per window of consecutive deliveries (one
/// latency window's worth of offered records each), then the median over
/// windows; the pooled quantile when the pass has no windows (catch-up).
double windowed_latency(const PassResult& p, double q) {
  const std::size_t block = p.records_per_latency_window;
  if (block == 0 || p.latency_us.size() < 2 * block) return quantile(p.latency_us, q);
  std::vector<double> per_window;
  for (std::size_t begin = 0; begin + block <= p.latency_us.size(); begin += block) {
    per_window.push_back(quantile(
        std::vector<float>(p.latency_us.begin() + static_cast<std::ptrdiff_t>(begin),
                           p.latency_us.begin() + static_cast<std::ptrdiff_t>(begin + block)),
        q));
  }
  return median(per_window);
}

/// CPU cost per record: the 10th percentile of the per-window values (else
/// the pass total). Contention from other work on the host comes and goes
/// over seconds and only ever adds CPU time, so the quiet windows are the
/// repeatable measure of the cost; a slower code path slows every window.
double windowed_cost(const std::vector<double>& w, double total) {
  if (w.empty()) return total;
  std::vector<float> v(w.begin(), w.end());
  return quantile(std::move(v), 0.10);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const PassResult& p, double peak_rss_mb) {
  const double unique = static_cast<double>(p.delivered + p.fifo_violations);
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"latency_p50_us", windowed_latency(p, 0.50), "us"},
      {"latency_p99_us", windowed_latency(p, 0.99), "us"},
      {"delivered_ratio", ratio(static_cast<double>(p.delivered), static_cast<double>(p.offered)),
       "fraction"},
      {"out_of_order_ratio",
       windowed(p.ooo_w, ratio(static_cast<double>(p.out_of_order), unique)), "fraction"},
      {"catchup_evps", median(p.catchup_evps), "records/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> cpu_cost_metrics(const PassResult& p) {
  return {
      {"notice_ns",
       windowed_cost(p.notice_ns_w, ratio(static_cast<double>(p.notice_ns_total),
                                          static_cast<double>(p.notices_timed))),
       "ns"},
      {"exs_cpu_ns_per_rec",
       windowed_cost(p.exs_ns_w, ratio(static_cast<double>(p.exs_cpu_us) * 1e3,
                                       static_cast<double>(p.exs_records))),
       "ns"},
      {"ism.cpu_ns_per_rec",
       windowed_cost(p.ism_ns_w, ratio(static_cast<double>(p.ism_cpu_us) * 1e3,
                                       static_cast<double>(p.ism_records))),
       "ns"},
  };
}

std::vector<Metric> per_layer_metrics(const PassResult& t, const PassResult& u) {
  auto cpu_per_rec = [](const PassResult& p) {
    return ratio(static_cast<double>(p.exs_cpu_us + p.ism_cpu_us) * 1e3,
                 static_cast<double>(p.exs_records));
  };
  // CPU costs come from the untraced pass, like every end-to-end number.
  std::vector<Metric> m = cpu_cost_metrics(u);
  const std::vector<Metric> layers = {
      {"sensors.ring_full_drops", static_cast<double>(t.ring_drops), "count"},
      {"shm.ring_peak_bytes", static_cast<double>(t.ring_peak_bytes), "bytes"},
      {"lis.recs_per_batch", ratio(static_cast<double>(t.exs_records),
                                   static_cast<double>(t.batches_sent)),
       "records"},
      {"lis.paced_batches", static_cast<double>(t.paced_batches), "count"},
      {"lis.credit_stalled_us", static_cast<double>(t.credit_stalled_us), "us"},
      {"lis.reconnects", static_cast<double>(t.reconnects), "count"},
      {"lis.batches_replayed", static_cast<double>(t.batches_replayed), "count"},
      {"lis.replay_evictions", static_cast<double>(t.replay_evictions), "count"},
      {"tp.wire_bytes_per_rec", ratio(static_cast<double>(t.bytes_sent),
                                      static_cast<double>(t.exs_records)),
       "bytes"},
      {"ism.ingest_stalls", static_cast<double>(t.ingest_stalls), "count"},
      {"ism.batch_seq_gaps", static_cast<double>(t.batch_seq_gaps), "count"},
      {"ism.protocol_errors", static_cast<double>(t.protocol_errors), "count"},
      {"sort.late_drops", static_cast<double>(t.sort_late_drops), "count"},
      {"sort.frame_raises", static_cast<double>(t.sort_frame_raises), "count"},
      {"sort.overflow_drops", static_cast<double>(t.sort_overflow_drops), "count"},
      {"sort.mean_delay_us", ratio(static_cast<double>(t.sort_total_delay_us),
                                   static_cast<double>(t.sort_emitted)),
       "us"},
      {"merge.inversions", static_cast<double>(t.merge_inversions), "count"},
      {"merge.run_len", ratio(static_cast<double>(t.merged), static_cast<double>(t.merge_runs)),
       "records"},
      {"merge.submit_stalls", static_cast<double>(t.submit_stalls), "count"},
      {"cre.conseqs_held", static_cast<double>(t.cre_conseqs_held), "count"},
      {"cre.hold_timeouts", static_cast<double>(t.cre_hold_timeouts), "count"},
      {"gateway.lane_drops", static_cast<double>(t.lane_drops), "count"},
      {"gateway.sub_drops", static_cast<double>(t.sub_drops), "count"},
      {"gateway.tcp_evicted", static_cast<double>(t.tcp_evicted), "count"},
      {"consumers.poll_ns_per_rec", ratio(static_cast<double>(t.poll_ns_total),
                                          static_cast<double>(t.polled_records)),
       "ns"},
  };
  m.insert(m.end(), layers.begin(), layers.end());
  for (int i = 0; i < PassResult::kStagePairs; ++i) {
    const std::string base =
        std::string("stage.") + kStageTokens[i] + "_to_" + kStageTokens[i + 1] + "_us";
    m.push_back({base + ".p50", quantile(t.stage_us[i], 0.50), "us"});
    m.push_back({base + ".p99", quantile(t.stage_us[i], 0.99), "us"});
  }
  m.push_back({"stage.sink_to_consumer_us.p50", quantile(t.sink_to_consumer_us, 0.50), "us"});
  m.push_back({"stage.sink_to_consumer_us.p99", quantile(t.sink_to_consumer_us, 0.99), "us"});
  m.push_back({"acct.unaccounted", static_cast<double>(unaccounted(t)), "count"});
  m.push_back({"gen.late_p99_us", gen_late_quantile_us(t, 0.99), "us"});
  m.push_back({"trace.overhead_ratio",
               ratio(cpu_per_rec(t) - cpu_per_rec(u), cpu_per_rec(u)), "ratio"});
  return m;
}

void print_conservation(std::FILE* f, const char* label, const PassResult& p) {
  std::fprintf(f,
               "conservation[%s]: offered %llu = delivered %llu + fifo_violations %llu"
               " + ring_drops %llu + sorter_overflow_drops %llu + gateway_drops %llu"
               " + unaccounted %lld  (cre_reordered %llu, duplicates %llu, cre_violations %llu, agg_violations %llu,"
               " sample_violations %llu, unknown %llu; replay_evictions %llu batches,"
               " batch_seq_gaps %llu)\n",
               label, static_cast<unsigned long long>(p.offered),
               static_cast<unsigned long long>(p.delivered),
               static_cast<unsigned long long>(p.fifo_violations),
               static_cast<unsigned long long>(p.ring_drops),
               static_cast<unsigned long long>(p.sort_overflow_drops),
               static_cast<unsigned long long>(p.named_losses - p.ring_drops -
                                               p.sort_overflow_drops),
               unaccounted(p), static_cast<unsigned long long>(p.cre_reordered),
               static_cast<unsigned long long>(p.duplicates),
               static_cast<unsigned long long>(p.cre_violations),
               static_cast<unsigned long long>(p.agg_violations),
               static_cast<unsigned long long>(p.sample_violations),
               static_cast<unsigned long long>(p.unknown_records),
               static_cast<unsigned long long>(p.replay_evictions),
               static_cast<unsigned long long>(p.batch_seq_gaps));
}

void print_stage_table(std::FILE* f, const std::string& workload, const PassResult& p) {
  std::fprintf(f, "stage table [%s] (us; 'wait+self' = from the previous stamp to this one)\n",
               workload.c_str());
  std::fprintf(f, "  %-26s %-10s %10s %12s %12s\n", "stage", "kind", "samples", "p50", "p99");
  auto row = [&](const std::string& name, const char* kind, const std::vector<float>& v) {
    std::fprintf(f, "  %-26s %-10s %10zu %12.2f %12.2f\n", name.c_str(), kind, v.size(),
                 quantile(v, 0.50), quantile(v, 0.99));
  };
  std::vector<float> late;
  for (std::int64_t ns : p.gen_late_ns) late.push_back(static_cast<float>(ns) / 1e3f);
  row("generator wake", "wait", late);
  row("notice (per record)", "self", span_durations_us(p, Span::notice_burst, true));
  for (int i = 0; i < PassResult::kStagePairs; ++i) {
    row(std::string(kStageTokens[i]) + " -> " + kStageTokens[i + 1], "wait+self", p.stage_us[i]);
  }
  row("sink callback", "self", span_durations_us(p, Span::sink_callback, false));
  row("sink -> consumer", "wait", p.sink_to_consumer_us);
  row("consumer poll", "self", span_durations_us(p, Span::consumer_poll, false));
  row("due -> consumer (e2e)", "wait+self", p.latency_us);
}

bool write_spans(const std::string& path, const std::string& workload, const PassResult& p) {
  static const char* kKinds[] = {"notice_burst", "sink_callback", "consumer_poll", "setup",
                                 "drain"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : p.spans) {
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"span\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"records\":%llu}\n",
                 workload.c_str(), kKinds[s.kind], static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
