#include "runtime/grid.hpp"

#include <cmath>
#include <stdexcept>

namespace dckpt::runtime {

// ---------------------------------------------------------------- kernel

HeatKernel2D::HeatKernel2D(double coefficient) : coefficient_(coefficient) {
  if (!(coefficient > 0.0) || coefficient > 0.25) {
    throw std::invalid_argument(
        "HeatKernel2D: need 0 < c <= 0.25 for stability");
  }
}

void HeatKernel2D::initialize(std::size_t row0, std::size_t col0,
                              std::size_t rows, std::size_t cols,
                              std::span<double> state) const {
  if (state.size() != rows * cols) {
    throw std::invalid_argument("HeatKernel2D: state/block size mismatch");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double x = static_cast<double>(col0 + c);
      const double y = static_cast<double>(row0 + r);
      state[r * cols + c] =
          std::sin(0.05 * x) * std::cos(0.07 * y) +
          0.2 * std::sin(0.31 * (x + y));
    }
  }
}

void HeatKernel2D::step(std::span<const double> previous,
                        std::span<double> next, std::size_t rows,
                        std::size_t cols, std::span<const double> north,
                        std::span<const double> south,
                        std::span<const double> west,
                        std::span<const double> east) const {
  if (previous.size() != rows * cols || next.size() != rows * cols ||
      north.size() != cols || south.size() != cols || west.size() != rows ||
      east.size() != rows) {
    throw std::invalid_argument("HeatKernel2D: halo/block size mismatch");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double up = (r == 0) ? north[c] : previous[(r - 1) * cols + c];
      const double down =
          (r + 1 == rows) ? south[c] : previous[(r + 1) * cols + c];
      const double left = (c == 0) ? west[r] : previous[r * cols + c - 1];
      const double right =
          (c + 1 == cols) ? east[r] : previous[r * cols + c + 1];
      const double centre = previous[r * cols + c];
      next[r * cols + c] =
          centre + coefficient_ * (up + down + left + right - 4.0 * centre);
    }
  }
}

std::string HeatKernel2D::name() const { return "heat-diffusion-2d"; }

// ---------------------------------------------------------------- config

void GridConfig::validate() const {
  if (grid_rows == 0 || grid_cols == 0) {
    throw std::invalid_argument("GridConfig: empty worker grid");
  }
  if (block_rows == 0 || block_cols == 0) {
    throw std::invalid_argument("GridConfig: empty block");
  }
  ProtocolConfig::validate(nodes());
}

// ---------------------------------------------------------------- domain

namespace {

/// A grid of blocks with four halo edges each; the domain boundary is 0.
class GridDomain final : public Domain {
 public:
  GridDomain(const GridConfig& config, std::unique_ptr<GridKernel> kernel)
      : kernel_(std::move(kernel)), rows_(config.grid_rows),
        cols_(config.grid_cols), block_rows_(config.block_rows),
        block_cols_(config.block_cols),
        halos_(config.nodes(), Halos{std::vector<double>(block_cols_),
                                     std::vector<double>(block_cols_),
                                     std::vector<double>(block_rows_),
                                     std::vector<double>(block_rows_)}) {
    config.validate();
    if (!kernel_) throw std::invalid_argument("GridCoordinator: null kernel");
  }

  std::size_t cells_per_node() const override {
    return block_rows_ * block_cols_;
  }

  void initialize(std::uint64_t node,
                  std::span<double> state) const override {
    kernel_->initialize((node / cols_) * block_rows_,
                        (node % cols_) * block_cols_, block_rows_,
                        block_cols_, state);
  }

  void capture_halos(const NodeSet& nodes) override {
    // Edges on the domain boundary keep their initial 0. Rows are
    // contiguous in the row-major block; columns are gathered.
    const std::size_t br = block_rows_, bc = block_cols_;
    for (std::size_t node = 0; node < halos_.size(); ++node) {
      const std::size_t gr = node / cols_, gc = node % cols_;
      Halos& h = halos_[node];
      if (gr > 0) nodes.read(node - cols_, (br - 1) * bc, h.north);
      if (gr + 1 < rows_) nodes.read(node + cols_, 0, h.south);
      for (std::size_t r = 0; r < br; ++r) {
        if (gc > 0) h.west[r] = nodes.value_at(node - 1, r * bc + bc - 1);
        if (gc + 1 < cols_) h.east[r] = nodes.value_at(node + 1, r * bc);
      }
    }
  }

  void step(std::uint64_t node, std::span<const double> previous,
            std::span<double> next) const override {
    const Halos& h = halos_[node];
    kernel_->step(previous, next, block_rows_, block_cols_, h.north, h.south,
                  h.west, h.east);
  }

 private:
  struct Halos {
    std::vector<double> north, south, west, east;
  };

  std::unique_ptr<GridKernel> kernel_;
  std::size_t rows_, cols_, block_rows_, block_cols_;
  std::vector<Halos> halos_;
};

}  // namespace

GridCoordinator::GridCoordinator(GridConfig config,
                                 std::unique_ptr<GridKernel> kernel)
    : ProtocolDriver(config, config.nodes(),
                     std::make_unique<GridDomain>(config, std::move(kernel))),
      config_(config) {}

}  // namespace dckpt::runtime
