// Coordinated fault-tolerant execution of a 1-D domain-decomposed kernel:
// the runtime counterpart of the protocols the model analyses.
//
// The Coordinator adapts a Kernel (each node owns a contiguous block of
// cells and exchanges one halo cell with each neighbour per step) to the
// protocol driver, which does all checkpointing, failure injection and
// rollback-recovery (runtime/protocol.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/kernel.hpp"
#include "runtime/protocol.hpp"

namespace dckpt::runtime {

struct RuntimeConfig : ProtocolConfig {
  std::uint64_t nodes = 4;
  std::size_t cells_per_node = 512;

  void validate() const;
};

/// The protocol driver over a chain of `nodes` blocks.
class Coordinator : public ProtocolDriver {
 public:
  Coordinator(RuntimeConfig config, std::unique_ptr<Kernel> kernel);

  const RuntimeConfig& config() const noexcept { return config_; }

 private:
  RuntimeConfig config_;
};

}  // namespace dckpt::runtime
