// runtime-full and runtime-dcp: the checkpoint stack driven through
// Coordinator::run (1-D chain, pairs and triples) and GridCoordinator::run
// (2-D grid, pairs), one stepping thread, 256 KiB of state per node,
// a checkpoint every 10 steps and one scripted node loss per run.
//
// runtime-full runs the heat kernels: every cell changes every step, so
// every commit is a full image. runtime-dcp runs benchmark-owned kernels
// that update only a small moving region of each block (plus the halo
// edges) under a dcp stack of K = 4, and adds a torn delta layer next to
// the node loss: commits are mostly block deltas, restores replay chains
// and fail over past the torn layer.
//
// ops_per_s: executed steps (replays included) per second.
// p50_ms: interval between consecutive steps as the application sees it.
//   Commit steps are the upper decile; their typical stall, the p95, is
//   reported in the traced run (runtime.step_p95_ms).
//
// The process is pinned to one CPU. The coordinator hands every step to
// its stepping thread; unpinned, each hand-off woke another vCPU, and on
// the 4-vCPU VM the benchmark was built on steps/s then followed the
// host's CPU steal (a third lower in runs with 500-700 steal ticks).
// Pinned, steps/s rose by about 15% and the steal the run saw fell
// fivefold.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/buddy_store.hpp"
#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/ring.hpp"
#include "common.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/grid.hpp"
#include "runtime/kernel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace dckpt;

constexpr std::size_t kCellsPerNode = 32768;  // 256 KiB of doubles
constexpr std::size_t kGridRows = 128;
constexpr std::size_t kGridCols = 256;        // 128 x 256 doubles = 256 KiB
constexpr std::uint64_t kInterval = 10;
constexpr std::uint64_t kTotalSteps = 200;
constexpr std::uint64_t kDcpStack = 4;
constexpr double kCoefficient = 0.2;

/// Step timing shared by the timing wrappers. The stepping pool has one
/// thread, and run() joins it before the runner reads these fields.
struct StepClock {
  std::size_t nodes = 1;
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::vector<std::int64_t> node0_starts;
};

// --------------------------------------------------------------- kernels

/// Heat diffusion on the halo edges and on one moving band of cells only;
/// the last cell counts steps and positions the band. Little content
/// changes per period, which is the regime differential checkpoints target.
class SparseKernel final : public runtime::Kernel {
 public:
  static constexpr std::size_t kRegion = 256;
  static constexpr std::uint64_t kMoveEvery = 4;

  void initialize(std::size_t global_offset,
                  std::span<double> state) const override {
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = std::sin(1e-3 * static_cast<double>(global_offset + i));
    }
    state.back() = 0.0;
  }

  void step(std::span<const double> prev, std::span<double> next,
            double left_ghost, double right_ghost) const override {
    const std::size_t n = prev.size();
    std::memcpy(next.data(), prev.data(), n * sizeof(double));
    const double counter = prev[n - 1];
    next[n - 1] = counter + 1.0;
    const std::size_t last = n - 2;  // last field cell
    next[0] = prev[0] + kCoefficient * (left_ghost - 2.0 * prev[0] + prev[1]);
    next[last] = prev[last] + kCoefficient * (prev[last - 1] -
                                              2.0 * prev[last] + right_ghost);
    const std::size_t span = last - kRegion - 1;
    const auto move = static_cast<std::size_t>(counter) / kMoveEvery;
    const std::size_t start = 1 + (move * kRegion) % span;
    for (std::size_t i = start; i < start + kRegion; ++i) {
      next[i] = prev[i] + kCoefficient * (prev[i - 1] - 2.0 * prev[i] +
                                          prev[i + 1]);
    }
  }

  std::size_t right_halo_index(std::size_t cells) const override {
    return cells - 2;
  }
  std::string name() const override { return "sparse"; }
};

/// 2-D counterpart: the north and south edge rows take the halos, one
/// moving interior row diffuses vertically, the last cell counts steps.
class SparseGridKernel final : public runtime::GridKernel {
 public:
  static constexpr std::uint64_t kMoveEvery = 4;

  void initialize(std::size_t row0, std::size_t col0, std::size_t rows,
                  std::size_t cols, std::span<double> state) const override {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        state[r * cols + c] =
            std::sin(1e-2 * static_cast<double>(row0 + r)) *
            std::cos(1e-2 * static_cast<double>(col0 + c));
      }
    }
    state.back() = 0.0;
  }

  void step(std::span<const double> prev, std::span<double> next,
            std::size_t rows, std::size_t cols,
            std::span<const double> north, std::span<const double> south,
            std::span<const double>, std::span<const double>) const override {
    std::memcpy(next.data(), prev.data(), prev.size() * sizeof(double));
    const double counter = prev.back();
    const auto at = [cols](std::size_t r, std::size_t c) {
      return r * cols + c;
    };
    for (std::size_t c = 0; c < cols; ++c) {
      next[at(0, c)] = prev[at(0, c)] + kCoefficient * (north[c] -
                                                        2.0 * prev[at(0, c)] +
                                                        prev[at(1, c)]);
    }
    for (std::size_t c = 0; c + 1 < cols; ++c) {
      const std::size_t r = rows - 1;
      next[at(r, c)] = prev[at(r, c)] + kCoefficient * (prev[at(r - 1, c)] -
                                                        2.0 * prev[at(r, c)] +
                                                        south[c]);
    }
    const std::size_t band =
        1 + (static_cast<std::size_t>(counter) / kMoveEvery) % (rows - 2);
    for (std::size_t c = 0; c < cols; ++c) {
      next[at(band, c)] =
          prev[at(band, c)] +
          kCoefficient * (prev[at(band - 1, c)] - 2.0 * prev[at(band, c)] +
                          prev[at(band + 1, c)]);
    }
    next.back() = counter + 1.0;
  }

  std::string name() const override { return "sparse-grid"; }
};

/// Forwards to a kernel and times each step; every `nodes`-th call is the
/// first node of a new global step.
class TimedKernel final : public runtime::Kernel {
 public:
  TimedKernel(std::unique_ptr<runtime::Kernel> inner, StepClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void initialize(std::size_t offset, std::span<double> state) const override {
    inner_->initialize(offset, state);
  }
  void step(std::span<const double> prev, std::span<double> next,
            double left_ghost, double right_ghost) const override {
    const std::int64_t start = now_ns();
    if (clock_->calls++ % clock_->nodes == 0) {
      clock_->node0_starts.push_back(start);
    }
    inner_->step(prev, next, left_ghost, right_ghost);
    clock_->busy_ns += now_ns() - start;
  }
  std::size_t left_halo_index(std::size_t cells) const override {
    return inner_->left_halo_index(cells);
  }
  std::size_t right_halo_index(std::size_t cells) const override {
    return inner_->right_halo_index(cells);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<runtime::Kernel> inner_;
  StepClock* clock_;
};

class TimedGridKernel final : public runtime::GridKernel {
 public:
  TimedGridKernel(std::unique_ptr<runtime::GridKernel> inner,
                  StepClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void initialize(std::size_t row0, std::size_t col0, std::size_t rows,
                  std::size_t cols, std::span<double> state) const override {
    inner_->initialize(row0, col0, rows, cols, state);
  }
  void step(std::span<const double> prev, std::span<double> next,
            std::size_t rows, std::size_t cols, std::span<const double> north,
            std::span<const double> south, std::span<const double> west,
            std::span<const double> east) const override {
    const std::int64_t start = now_ns();
    if (clock_->calls++ % clock_->nodes == 0) {
      clock_->node0_starts.push_back(start);
    }
    inner_->step(prev, next, rows, cols, north, south, west, east);
    clock_->busy_ns += now_ns() - start;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<runtime::GridKernel> inner_;
  StepClock* clock_;
};

// ------------------------------------------------------------ topologies

enum class Shape { ChainPairs, ChainTriples, Grid };

struct Topology {
  std::string name;
  Shape shape = Shape::ChainPairs;
  std::uint64_t nodes = 0;
  std::uint64_t group = 2;
};

/// One constructed coordinator of either kind.
class Run {
 public:
  Run(const Topology& topo, bool dcp, StepClock* clock) {
    clock->nodes = topo.nodes;
    if (topo.shape == Shape::Grid) {
      runtime::GridConfig config;
      config.grid_rows = 2;
      config.grid_cols = topo.nodes / 2;
      config.topology = ckpt::Topology::Pairs;
      config.block_rows = kGridRows;
      config.block_cols = kGridCols;
      config.checkpoint_interval = kInterval;
      config.total_steps = kTotalSteps;
      config.threads = 1;
      config.dcp_stack_size = dcp ? kDcpStack : 0;
      std::unique_ptr<runtime::GridKernel> kernel;
      if (dcp) {
        kernel = std::make_unique<SparseGridKernel>();
      } else {
        kernel = std::make_unique<runtime::HeatKernel2D>(kCoefficient);
      }
      grid_ = std::make_unique<runtime::GridCoordinator>(
          config, std::make_unique<TimedGridKernel>(std::move(kernel), clock));
    } else {
      runtime::RuntimeConfig config;
      config.nodes = topo.nodes;
      config.topology = topo.shape == Shape::ChainPairs
                            ? ckpt::Topology::Pairs
                            : ckpt::Topology::Triples;
      config.cells_per_node = kCellsPerNode;
      config.checkpoint_interval = kInterval;
      config.total_steps = kTotalSteps;
      config.threads = 1;
      config.dcp_stack_size = dcp ? kDcpStack : 0;
      std::unique_ptr<runtime::Kernel> kernel;
      if (dcp) {
        kernel = std::make_unique<SparseKernel>();
      } else {
        kernel = std::make_unique<runtime::HeatKernel>(kCoefficient);
      }
      chain_ = std::make_unique<runtime::Coordinator>(
          config, std::make_unique<TimedKernel>(std::move(kernel), clock));
    }
  }

  runtime::RunReport run(std::span<const runtime::FailureInjection> plan) {
    TraceScope span(grid_ ? "runtime.grid_run" : "runtime.coordinator_run");
    return grid_ ? grid_->run(plan) : chain_->run(plan);
  }

 private:
  std::unique_ptr<runtime::Coordinator> chain_;
  std::unique_ptr<runtime::GridCoordinator> grid_;
};

/// One node loss at a step inside the dcp chain window of a K = 4 cadence
/// (step mod 40 in [25, 39], so at least one delta layer is chained), plus,
/// for dcp, a torn first layer of a node in another group at the same step:
/// the coordinated rollback must fail that node over to its next rung.
std::vector<runtime::FailureInjection> failure_plan(const Topology& topo,
                                                    bool dcp,
                                                    std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const std::uint64_t step = 40 + 40 * (rng.next() % 3) + 25 + rng.next() % 15;
  const std::uint64_t node = rng.next() % topo.nodes;
  std::vector<runtime::FailureInjection> plan;
  runtime::FailureInjection loss;
  loss.step = step;
  loss.node = node;
  loss.kind = runtime::InjectionKind::NodeLoss;
  plan.push_back(loss);
  if (dcp) {
    runtime::FailureInjection torn;
    torn.step = step;
    torn.node = (node + topo.group) % topo.nodes;
    torn.kind = runtime::InjectionKind::TornDelta;
    torn.window = 1;
    plan.push_back(torn);
  }
  return plan;
}

struct TopologyStats {
  std::vector<double> run_s;
  std::vector<double> clean_run_s;  ///< failure-free runs (traced only)
  std::vector<double> untraced_s;   ///< tracing-off rounds of a traced run
  std::vector<double> setup_s;
  std::vector<double> kernel_share;
  std::vector<double> step_ms;      ///< intervals between global steps
  runtime::RunReport report;        ///< last run with injections
  std::uint64_t ref_hash = 0;
};

/// Checks a report against the failure-free hash and the commit cadence.
void check_report(const runtime::RunReport& report, std::uint64_t ref_hash,
                  bool dcp, bool failure_free, const std::string& who,
                  Outcome& out) {
  out.check(!report.fatal, who + ": fatal data loss");
  out.check(report.final_hash == ref_hash,
            who + ": final_hash differs from the failure-free run");
  const std::uint64_t full = report.full_commits;
  const std::uint64_t delta = report.delta_commits;
  bool cadence = full + delta == report.checkpoints;
  if (!dcp) {
    cadence = cadence && delta == 0;
  } else if (failure_free) {
    cadence = cadence && full == (report.checkpoints + kDcpStack - 1) /
                                     kDcpStack;
  } else {
    cadence = cadence && delta <= (kDcpStack - 1) * full && delta > 0;
  }
  out.check(cadence, who + ": commits " + std::to_string(full) + " full + " +
                         std::to_string(delta) + " delta of " +
                         std::to_string(report.checkpoints) +
                         " break the K cadence");
}

// ------------------------------------------------------ ckpt layer probes

/// ckpt functions at the workload's image size (256 KiB) and dirty
/// pattern: `base` is a node image, `current` the same node one
/// checkpoint interval later. Throughputs are image bytes over time with
/// the image resident in cache.
void measure_ckpt(bool dcp, Outcome& out) {
  const std::size_t bytes = kCellsPerNode * sizeof(double);
  std::vector<double> prev(kCellsPerNode), next(kCellsPerNode);
  std::unique_ptr<runtime::Kernel> kernel;
  if (dcp) {
    kernel = std::make_unique<SparseKernel>();
  } else {
    kernel = std::make_unique<runtime::HeatKernel>(kCoefficient);
  }
  kernel->initialize(kCellsPerNode, next);
  const auto as_bytes = [](const std::vector<double>& v) {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(v.data()),
        v.size() * sizeof(double));
  };
  ckpt::PageStore memory(bytes);
  memory.write(0, as_bytes(next));
  const ckpt::Snapshot base = memory.snapshot(0);
  for (std::uint64_t s = 0; s < kInterval; ++s) {
    prev.swap(next);
    kernel->step(prev, next, 0.5, -0.5);
  }
  memory.write(0, as_bytes(next));
  const std::size_t block = ckpt::kDefaultDcpBlockSize;
  const auto base_hashes = ckpt::block_hashes(base, block);
  const std::uint64_t base_hash = base.content_hash();

  std::uint64_t sink = 0;
  const double snapshot_s = seconds_per_call("ckpt.snapshot", 11, 200, [&] {
    sink += memory.snapshot(0).page_count();
  });
  const double hash_s = seconds_per_call("ckpt.content_hash", 11, 20, [&] {
    sink += memory.snapshot(0).content_hash();  // fresh snapshot: uncached
  });
  const ckpt::Snapshot current = memory.snapshot(0);
  const double block_hash_s =
      seconds_per_call("ckpt.block_hashes", 11, 20, [&] {
        sink += ckpt::block_hashes(current, block).size();
      });
  ckpt::BlockDelta delta;
  const double make_s = seconds_per_call("ckpt.make_block_delta", 11, 20, [&] {
    delta = ckpt::make_block_delta(base_hashes, base.version(), base_hash,
                                   current, block);
  });
  const double apply_s =
      seconds_per_call("ckpt.apply_block_delta", 11, 20, [&] {
        sink += ckpt::apply_block_delta(base, delta).page_count();
      });
  out.check(ckpt::apply_block_delta(base, delta).content_hash() ==
                current.content_hash(),
            "ckpt: base + block delta does not reproduce the image");
  ckpt::PageStore target(bytes);
  std::vector<double> loaded(kCellsPerNode);
  const double restore_s = seconds_per_call("ckpt.restore", 11, 20, [&] {
    target.restore(current);
    target.read(0, std::as_writable_bytes(std::span(loaded)));
  });

  // A committed pair; node 0 lost its store, so recovery walks its ladder
  // to the buddy and verifies the image hash there.
  const ckpt::GroupAssignment groups(2, ckpt::Topology::Pairs);
  std::vector<std::unique_ptr<ckpt::BuddyStore>> stores;
  std::vector<ckpt::BuddyStore*> directory;
  ckpt::PageStore node0(bytes), node1(bytes);
  node0.write(0, as_bytes(next));
  node1.write(0, as_bytes(prev));
  const ckpt::Snapshot images[2] = {node0.snapshot(0), node1.snapshot(1)};
  for (std::uint64_t node = 0; node < 2; ++node) {
    stores.push_back(std::make_unique<ckpt::BuddyStore>(node));
    directory.push_back(stores.back().get());
  }
  for (std::uint64_t node = 0; node < 2; ++node) {
    stores[node]->stage(images[node]);
    stores[groups.preferred_buddy(node)]->stage(images[node]);
  }
  for (auto& store : stores) store->promote(images[0].version());
  *stores[0] = ckpt::BuddyStore(0);
  ckpt::PageStore lost(bytes);
  bool recovered = true;
  const double recover_s = seconds_per_call("ckpt.recover_node", 11, 20, [&] {
    recovered = recovered && ckpt::recover_node(0, groups, directory, lost,
                                                images[0].content_hash())
                                 .ok();
  });
  out.check(recovered, "ckpt: recover_node failed on a clean buddy replica");

  const double gb = static_cast<double>(bytes) * 1e-9;
  out.set("ckpt.snapshot_us", snapshot_s * 1e6, "us");
  out.set("ckpt.content_hash_gbps", gb / hash_s, "GB/s");
  out.set("ckpt.block_hashes_gbps", gb / block_hash_s, "GB/s");
  out.set("ckpt.make_block_delta_gbps", gb / make_s, "GB/s");
  out.set("ckpt.apply_block_delta_gbps", gb / apply_s, "GB/s");
  out.set("ckpt.restore_gbps", gb / restore_s, "GB/s");
  out.set("ckpt.recover_node_us", recover_s * 1e6, "us");
  out.set("ckpt.delta_bytes_share",
          static_cast<double>(delta.delta_bytes()) / static_cast<double>(bytes),
          "ratio");
  out.notes.push_back(
      "ckpt: GB/s = image bytes (256 KiB) / time, image resident in cache");
  if (sink == 42) out.notes.push_back("unreachable");
}

}  // namespace

Outcome run_runtime(const RunOptions& options) {
  pin_to_one_cpu();
  const bool dcp = options.workload == "runtime-dcp";
  Outcome out;
  Budget budget(options.seconds);
  const bool traced = tracer().enabled();
  const std::vector<Topology> topologies = {
      {"pairs", Shape::ChainPairs, 8, 2},
      {"triples", Shape::ChainTriples, 6, 3},
      {"grid", Shape::Grid, 8, 2},
  };
  std::vector<std::vector<runtime::FailureInjection>> plans;
  util::SplitMix64 seeds(options.seed ^ (dcp ? 0xdc9ULL : 0xf11ULL));
  for (const auto& topo : topologies) {
    plans.push_back(failure_plan(topo, dcp, seeds.next()));
  }

  // Warm-up: a failure-free run of each topology gives the reference hash.
  std::vector<TopologyStats> stats(topologies.size());
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    StepClock clock;
    Run run(topologies[t], dcp, &clock);
    const auto report = run.run({});
    stats[t].ref_hash = report.final_hash;
    check_report(report, report.final_hash, dcp, true,
                 topologies[t].name + " failure-free", out);
  }

  for (std::size_t round = 0; round < 3 || budget.before(0.9); ++round) {
    // A traced run alternates tracing on and off to measure its overhead.
    const bool untraced_round = traced && round % 2 == 1;
    tracer().set_enabled(traced && !untraced_round);
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      TraceScope span("bench.runtime_round");
      for (int clean = traced ? 1 : 0; clean >= 0; --clean) {
        StepClock clock;
        const std::int64_t setup_start = now_ns();
        Run run(topologies[t], dcp, &clock);
        const double setup = seconds_since(setup_start);
        const std::int64_t start = now_ns();
        const auto report =
            run.run(clean ? std::span<const runtime::FailureInjection>()
                          : std::span(plans[t]));
        const std::int64_t end = now_ns();
        const double elapsed = static_cast<double>(end - start) * 1e-9;
        const std::string who = topologies[t].name + (clean ? " clean" : "");
        check_report(report, stats[t].ref_hash, dcp, clean == 1, who, out);
        if (clean) {
          stats[t].clean_run_s.push_back(elapsed);
          continue;
        }
        if (untraced_round) {
          stats[t].untraced_s.push_back(elapsed);
          continue;
        }
        stats[t].setup_s.push_back(setup);
        stats[t].run_s.push_back(elapsed);
        stats[t].kernel_share.push_back(
            static_cast<double>(clock.busy_ns) * 1e-9 / elapsed);
        stats[t].report = report;
        for (std::size_t i = 1; i < clock.node0_starts.size(); ++i) {
          stats[t].step_ms.push_back(
              static_cast<double>(clock.node0_starts[i] -
                                  clock.node0_starts[i - 1]) *
              1e-6);
        }
      }
    }
  }
  tracer().set_enabled(traced);

  // Step-interval percentiles are taken per topology and averaged, so the
  // three topologies weigh equally whatever their step counts.
  double steps = 0.0, run_s = 0.0, setup_s = 0.0, p50 = 0.0, p95 = 0.0;
  for (const auto& s : stats) {
    steps += static_cast<double>(s.report.steps_executed);
    run_s += median(s.run_s);
    setup_s += median(s.setup_s);
    p50 += quantile(s.step_ms, 0.5) / static_cast<double>(stats.size());
    p95 += quantile(s.step_ms, 0.95) / static_cast<double>(stats.size());
  }
  if (!traced) {
    out.set("setup_s", setup_s, "s");
    out.set("ops_per_s", steps / run_s, "1/s");
    out.set("p50_ms", p50, "ms");
  } else {
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      const auto& s = stats[t];
      const auto& r = s.report;
      const std::string prefix = "runtime." + topologies[t].name + ".";
      const double faulty_ms = median(s.run_s) * 1e3;
      out.set(prefix + "run_ms", faulty_ms, "ms");
      out.set(prefix + "kernel_share", median(s.kernel_share), "ratio");
      out.set(prefix + "failure_cost_ms",
              r.failures > 0 ? (faulty_ms - median(s.clean_run_s) * 1e3) /
                                   static_cast<double>(r.failures)
                             : 0.0,
              "ms");
      out.set(prefix + "useful_step_share",
              static_cast<double>(kTotalSteps) /
                  static_cast<double>(r.steps_executed),
              "ratio");
      out.set(prefix + "checkpoints", static_cast<double>(r.checkpoints),
              "count");
      out.set(prefix + "replayed_steps", static_cast<double>(r.replayed_steps),
              "count");
      out.set(prefix + "bytes_replicated",
              static_cast<double>(r.bytes_replicated), "bytes");
      out.set(prefix + "cow_copies", static_cast<double>(r.cow_copies),
              "count");
      out.set(prefix + "delta_commits", static_cast<double>(r.delta_commits),
              "count");
      out.set(prefix + "full_commits", static_cast<double>(r.full_commits),
              "count");
      out.set(prefix + "chain_replays", static_cast<double>(r.chain_replays),
              "count");
    }
    double untraced_s = 0.0;
    for (const auto& s : stats) untraced_s += median(s.untraced_s);
    out.set("trace.overhead_share", (run_s - untraced_s) / untraced_s,
            "ratio");
    out.set("runtime.step_p95_ms", p95, "ms");
    measure_ckpt(dcp, out);
  }
  out.notes.push_back("runtime: " + std::to_string(stats[0].run_s.size()) +
                      " rounds, steps/s " + std::to_string(steps / run_s));
  return out;
}

}  // namespace perfbench
