// 2-D domain-decomposed fault-tolerant runtime.
//
// The standard 2-D HPC decomposition over the same protocol driver as the
// 1-D chain (runtime/protocol.hpp): a grid of nodes, each owning a block of
// a global field, exchanging one halo row/column with each of its four
// neighbours per step (Jacobi-style). Checkpointing, staging, failure
// injection, coordinated rollback-recovery and the re-replication risk
// window are the driver's, so they behave exactly as in the chain.
//
// Nodes are numbered row-major; the buddy topology (pairs/triples over
// consecutive ids) is orthogonal to the grid geometry -- as in real
// deployments, where buddy assignment follows racks, not the domain. The
// chaos shadow oracle exploits exactly that: one step/commit/refill
// machine predicts both topologies counter-for-counter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "runtime/protocol.hpp"

namespace dckpt::runtime {
/// Kernel over a 2-D block (row-major), with four pre-captured halo edges.
class GridKernel {
 public:
  virtual ~GridKernel() = default;

  /// Fills a block whose top-left cell is global (row0, col0).
  virtual void initialize(std::size_t row0, std::size_t col0,
                          std::size_t rows, std::size_t cols,
                          std::span<double> state) const = 0;

  /// One step. Halos hold the neighbouring edge values (cols entries for
  /// north/south, rows entries for west/east); domain boundary = 0.
  virtual void step(std::span<const double> previous, std::span<double> next,
                    std::size_t rows, std::size_t cols,
                    std::span<const double> north,
                    std::span<const double> south,
                    std::span<const double> west,
                    std::span<const double> east) const = 0;

  virtual std::string name() const = 0;
};

/// 5-point explicit heat diffusion; stable for c <= 0.25.
class HeatKernel2D final : public GridKernel {
 public:
  explicit HeatKernel2D(double coefficient = 0.2);

  void initialize(std::size_t row0, std::size_t col0, std::size_t rows,
                  std::size_t cols, std::span<double> state) const override;
  void step(std::span<const double> previous, std::span<double> next,
            std::size_t rows, std::size_t cols,
            std::span<const double> north, std::span<const double> south,
            std::span<const double> west,
            std::span<const double> east) const override;
  std::string name() const override;

 private:
  double coefficient_;
};

struct GridConfig : ProtocolConfig {
  std::size_t grid_rows = 2;
  std::size_t grid_cols = 2;
  std::size_t block_rows = 32;
  std::size_t block_cols = 32;

  GridConfig() { total_steps = 64; }

  std::uint64_t nodes() const noexcept {
    return static_cast<std::uint64_t>(grid_rows) * grid_cols;
  }
  void validate() const;
};

/// The protocol driver over a grid of blocks; global_state() concatenates
/// the blocks (row-major each) in row-major block order.
class GridCoordinator : public ProtocolDriver {
 public:
  GridCoordinator(GridConfig config, std::unique_ptr<GridKernel> kernel);

  const GridConfig& config() const noexcept { return config_; }

 private:
  GridConfig config_;
};

}  // namespace dckpt::runtime
