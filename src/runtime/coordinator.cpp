#include "runtime/coordinator.hpp"

#include <stdexcept>

namespace dckpt::runtime {

void RuntimeConfig::validate() const {
  if (cells_per_node == 0) {
    throw std::invalid_argument("RuntimeConfig: cells_per_node must be > 0");
  }
  ProtocolConfig::validate(nodes);
}

namespace {

/// A chain of blocks: node i's left ghost is node i-1's right halo cell
/// and vice versa; the domain boundary is 0.
class ChainDomain final : public Domain {
 public:
  ChainDomain(const RuntimeConfig& config, std::unique_ptr<Kernel> kernel)
      : kernel_(std::move(kernel)), cells_(config.cells_per_node),
        left_ghost_(config.nodes), right_ghost_(config.nodes) {
    config.validate();
    if (!kernel_) throw std::invalid_argument("Coordinator: null kernel");
  }

  std::size_t cells_per_node() const override { return cells_; }

  void initialize(std::uint64_t node,
                  std::span<double> state) const override {
    kernel_->initialize(node * cells_, state);
  }

  void capture_halos(const NodeSet& nodes) override {
    // The boundary ghosts keep their initial 0.
    const std::size_t n = left_ghost_.size();
    const std::size_t right_idx = kernel_->right_halo_index(cells_);
    const std::size_t left_idx = kernel_->left_halo_index(cells_);
    for (std::size_t i = 1; i < n; ++i) {
      left_ghost_[i] = nodes.value_at(i - 1, right_idx);
      right_ghost_[i - 1] = nodes.value_at(i, left_idx);
    }
  }

  void step(std::uint64_t node, std::span<const double> previous,
            std::span<double> next) const override {
    kernel_->step(previous, next, left_ghost_[node], right_ghost_[node]);
  }

 private:
  std::unique_ptr<Kernel> kernel_;
  std::size_t cells_;
  std::vector<double> left_ghost_, right_ghost_;
};

}  // namespace

Coordinator::Coordinator(RuntimeConfig config, std::unique_ptr<Kernel> kernel)
    : ProtocolDriver(config, config.nodes,
                     std::make_unique<ChainDomain>(config, std::move(kernel))),
      config_(config) {}

}  // namespace dckpt::runtime
