// pm2_perfbench: runs one workload once and prints one JSON line with both
// clocks' results.  perfbench/run.py repeats it, aggregates and checks.
//
//   pm2_perfbench --workload p2p_mix|rpc_tail|halo_solver --seed N
//                 [--traced] [--spans PATH]
//
// --traced turns on ClusterConfig::tracing and flight recording and keeps
// the benchmark's own call spans in memory; --spans writes them (Chrome
// trace JSON) at exit.  Exit code 1 on bad arguments or a broken
// conservation law, 0 otherwise (failed ops are reported, not fatal).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "common.hpp"

namespace {

using namespace perfbench;

/// Nearest-rank percentile; failed ops sort last as "never completed".
double pct_us(const std::vector<SimDuration>& sorted, std::uint64_t failed,
              double q) {
  const std::size_t n = sorted.size() + failed;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t i = std::max<std::size_t>(rank, 1) - 1;
  if (i >= sorted.size()) return std::numeric_limits<double>::infinity();
  return us(sorted[i]);
}

/// Peak resident set of this process image.  VmHWM, unlike ru_maxrss,
/// restarts at exec, so the launching interpreter's footprint is excluded.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// JSON number with every digit; null for a non-finite value.
void print_num(const char* key, double v, bool last = false) {
  if (std::isfinite(v)) {
    std::printf("\"%s\":%.17g%s", key, v, last ? "" : ",");
  } else {
    std::printf("\"%s\":null%s", key, last ? "" : ",");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: pm2_perfbench --workload p2p_mix|rpc_tail|halo_solver "
               "--seed N [--traced] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  SpanLog spans(opt.traced);
  const double probe_before_setup = probe_s();
  Result r;
  if (workload == "p2p_mix") {
    r = run_p2p_mix(opt, spans);
  } else if (workload == "rpc_tail") {
    r = run_rpc_tail(opt, spans);
  } else if (workload == "halo_solver") {
    r = run_halo_solver(opt, spans);
  } else {
    return usage();
  }
  // Set-up is calibrated by the probes either side of it; timed_run()
  // takes the second before it starts.
  r.setup_s = calibrated(r.setup_cpu_s,
                         (probe_before_setup + r.probes.front()) / 2);
  if (!spans_path.empty() && opt.traced && !spans.write(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }

  std::sort(r.lat.begin(), r.lat.end());
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s,",
              workload.c_str(), opt.seed, opt.traced ? "true" : "false");
  print_num("setup_s", r.setup_s);
  print_num("run_s", r.run_s);
  print_num("setup_cpu_s", r.setup_cpu_s);
  print_num("run_cpu_s", r.run_cpu_s);
  std::sort(r.probes.begin(), r.probes.end());
  print_num("probe_s", r.probes[r.probes.size() / 2]);
  print_num("peak_rss_mb", peak_rss_mb());
  print_num("events", static_cast<double>(r.events));
  print_num("msgs", static_cast<double>(r.msgs));
  print_num("attempted", static_cast<double>(r.attempted));
  print_num("failed", static_cast<double>(r.failed));
  print_num("samples", static_cast<double>(r.lat.size()));
  print_num("vt_p50_us", pct_us(r.lat, r.failed, 0.50));
  print_num("vt_p99_us", pct_us(r.lat, r.failed, 0.99));
  print_num("vt_p999_us", pct_us(r.lat, r.failed, 0.999));
  print_num("vt_ops_per_ms",
            static_cast<double>(r.lat.size()) / (us(r.vt_span) / 1000.0));
  std::printf("\"laws\":[");
  for (std::size_t i = 0; i < r.laws.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", r.laws[i].c_str());
  }
  std::printf("]");
  for (const auto& [key, map] : {std::pair{"layer", &r.layer},
                                 std::pair{"traced_only", &r.traced_only}}) {
    std::printf(",\"%s\":{", key);
    std::size_t i = 0;
    for (const auto& [name, v] : *map) {
      print_num(name.c_str(), v, ++i == map->size());
    }
    std::printf("}");
  }
  std::printf("}\n");
  for (const std::string& law : r.laws) {
    std::fprintf(stderr, "conservation law broken: %s\n", law.c_str());
  }
  return r.laws.empty() ? 0 : 1;
}
