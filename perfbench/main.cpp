// perfbench runner: runs one workload of the dckpt benchmark in this
// process and prints its metrics as the last line of standard output.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-out FILE]
//   perfbench_runner --dump-schedule N --seed N
//
// Workloads: campaign-paper, campaign-extended, runtime-full, runtime-dcp,
// serve-mix (see perfbench/README.md). With --trace 1 the runner records
// spans around its calls into each layer and reports per-layer metrics;
// with --trace 0 it reports the end-to-end metrics with tracing off.
// perfbench/run.py builds this binary and validates its output.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void pin_to_one_cpu() {
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(std::max(0, sched_getcpu()), &one_cpu);
  sched_setaffinity(0, sizeof one_cpu, &one_cpu);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Sum of the steal column of the aggregate "cpu" line of /proc/stat
/// (0 where the file or the column is missing).
std::uint64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  if (!(stat >> label) || label != "cpu") return 0;
  for (auto& field : fields) {
    if (!(stat >> field)) return 0;
  }
  return fields[7];
}

/// High-water resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the parent's pages from before exec.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return std::nan("");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n"
               "       perfbench_runner --dump-schedule N --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string spans_out;
  long long dump_schedule = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--spans-out") {
        spans_out = value;
      } else if (flag == "--dump-schedule") {
        dump_schedule = std::stoll(value);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  if (dump_schedule >= 0) {
    const auto schedule = make_serve_schedule(
        options.seed, static_cast<std::size_t>(dump_schedule));
    for (std::size_t i = 0; i < schedule.lines.size(); ++i) {
      std::printf("%.9f %s\n", schedule.unit_due[i], schedule.lines[i].c_str());
    }
    return 0;
  }
  if (!(options.seconds > 0.0)) return usage();
  // DCKPT_ENGINE switches every Monte-Carlo entry point to another engine
  // (MonteCarloOptions and EvalServiceOptions read it); the benchmark
  // measures the default engine only.
  if (const char* engine = std::getenv("DCKPT_ENGINE")) {
    std::fprintf(stderr,
                 "DCKPT_ENGINE=%s is set; unset it to run the benchmark\n",
                 engine);
    return 2;
  }

  const std::uint64_t steal_before = steal_ticks();
  tracer().set_enabled(options.trace);
  Outcome outcome;
  try {
    if (options.workload == "campaign-paper") {
      outcome = run_campaign(options, false);
    } else if (options.workload == "campaign-extended") {
      outcome = run_campaign(options, true);
    } else if (options.workload == "runtime-full" ||
               options.workload == "runtime-dcp") {
      outcome = run_runtime(options);
    } else if (options.workload == "serve-mix") {
      outcome = run_serve(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "workload %s aborted: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  const std::uint64_t steal = steal_ticks() - steal_before;
  const double peak_rss_mb = peak_rss_kib() / 1024.0;
  if (options.trace) {
    outcome.set("host.nproc", static_cast<double>(hardware_threads()),
                "count");
    outcome.set("host.steal_ticks", static_cast<double>(steal), "count");
    outcome.set("host.invol_ctx_switches",
                static_cast<double>(usage_self.ru_nivcsw), "count");
    outcome.set("trace.spans", static_cast<double>(tracer().size()), "count");
  } else {
    outcome.set("peak_rss_mb", peak_rss_mb, "MB");
  }
  if (options.trace && !spans_out.empty() &&
      !tracer().write_jsonl(spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
    return 1;
  }

  for (const auto& note : outcome.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  for (const auto& problem : outcome.problems) {
    std::fprintf(stderr, "FAILED: %s\n", problem.c_str());
  }
  using dckpt::util::JsonValue;
  JsonValue host = JsonValue::object();
  host.set("nproc", static_cast<std::uint64_t>(hardware_threads()));
  host.set("steal_ticks", steal);
  host.set("invol_ctx_switches",
           static_cast<std::uint64_t>(usage_self.ru_nivcsw));
  host.set("peak_rss_mb", peak_rss_mb);
  JsonValue metrics = JsonValue::object();
  for (const auto& [name, metric] : outcome.metrics) {
    JsonValue entry = JsonValue::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metrics.set(name, std::move(entry));
  }
  JsonValue line = JsonValue::object();
  line.set("correct", outcome.failed == 0);
  line.set("attempted", outcome.attempted);
  line.set("failed", outcome.failed);
  line.set("host", std::move(host));
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump().c_str());
  return 0;
}
