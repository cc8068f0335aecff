#include "runtime/protocol.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "ckpt/dcp.hpp"

namespace dckpt::runtime {

void ProtocolConfig::validate(std::uint64_t nodes) const {
  const auto gs =
      static_cast<std::uint64_t>(topology == ckpt::Topology::Pairs ? 2 : 3);
  if (nodes == 0 || nodes % gs != 0) {
    throw std::invalid_argument(
        "ProtocolConfig: nodes must be a positive multiple of the group "
        "size");
  }
  if (checkpoint_interval == 0 || total_steps == 0) {
    throw std::invalid_argument(
        "ProtocolConfig: checkpoint_interval and total_steps must be > 0");
  }
  if (staging_steps > checkpoint_interval) {
    throw std::invalid_argument(
        "ProtocolConfig: staging_steps must be <= checkpoint_interval");
  }
  if (keep_last == 0) {
    throw std::invalid_argument("ProtocolConfig: keep_last must be >= 1");
  }
  if (dcp_stack_size > 0) {
    if (dcp_block_size == 0) {
      throw std::invalid_argument(
          "ProtocolConfig: dcp_block_size must be > 0 when dcp is enabled");
    }
    // Chains hang off the single committed set: a staged exchange, a
    // rollback ladder deeper than 1, or a verification-triggered rollback
    // would all need per-set chains the substrate does not model.
    if (staging_steps != 0 || verify_every != 0 || keep_last != 1) {
      throw std::invalid_argument(
          "ProtocolConfig: dcp requires staging_steps == 0, verify_every == "
          "0 and keep_last == 1");
    }
  }
  transfer_retry.validate();
}

std::array<std::uint64_t, 2> replica_holders(
    const ckpt::GroupAssignment& groups, std::uint64_t node) {
  if (groups.topology() == ckpt::Topology::Pairs) {
    return {node, groups.preferred_buddy(node)};
  }
  return {groups.preferred_buddy(node), groups.secondary_buddy(node)};
}

void validate_injections(std::span<const FailureInjection> failures,
                         std::uint64_t nodes, std::uint64_t total_steps,
                         ckpt::Topology topology,
                         std::uint64_t verify_every,
                         std::uint64_t dcp_stack_size) {
  const ckpt::GroupAssignment groups(nodes, topology);
  for (const auto& failure : failures) {
    if (failure.node >= nodes) {
      throw std::invalid_argument("FailureInjection: node out of range");
    }
    if (failure.step >= total_steps) {
      throw std::invalid_argument("FailureInjection: step out of range");
    }
    if (failure.kind == InjectionKind::SilentError && verify_every == 0) {
      // With verification off, a silent error can never be observed and
      // the schedule would pass vacuously.
      throw std::invalid_argument(
          "FailureInjection: silent error requires verification enabled "
          "(verify_every > 0)");
    }
    if (failure.kind == InjectionKind::TornDelta) {
      // A chain never grows past K - 1 layers, so a depth outside
      // [1, K - 1] (or any TornDelta with dcp off) could never tear
      // anything and the schedule would pass vacuously.
      if (dcp_stack_size == 0) {
        throw std::invalid_argument(
            "FailureInjection: torn delta requires dcp enabled "
            "(dcp_stack_size > 0)");
      }
      if (failure.window == 0 || failure.window >= dcp_stack_size) {
        throw std::invalid_argument(
            "FailureInjection: torn-delta depth must be in [1, "
            "dcp_stack_size - 1]");
      }
    }
    if (failure.kind == InjectionKind::CorruptReplica) {
      if (failure.owner >= nodes) {
        throw std::invalid_argument("FailureInjection: owner out of range");
      }
      // The holder must be a node that actually stores the owner's
      // committed image under this topology, or the injection could never
      // damage anything and the schedule would pass vacuously.
      const auto holders = replica_holders(groups, failure.owner);
      if (std::find(holders.begin(), holders.end(), failure.node) ==
          holders.end()) {
        throw std::invalid_argument(
            "FailureInjection: corrupt target does not hold the owner's "
            "replica");
      }
    }
  }
}

namespace {

/// Static alarm <-> loss matching for the prediction scoreboard: each alarm
/// (step s, node v, window w) consumes the earliest unconsumed NodeLoss of
/// node v with s <= step <= s + w; every unconsumed loss counts as missed.
/// Valid as an upfront computation because injections fire exactly once --
/// replays never re-deliver either side. (The chaos shadow oracle mirrors
/// it independently.)
void score_predictions(std::span<const FailureInjection> failures,
                       RunReport& report) {
  std::vector<const FailureInjection*> losses;
  std::vector<const FailureInjection*> alarms;
  for (const auto& failure : failures) {
    if (failure.kind == InjectionKind::NodeLoss) losses.push_back(&failure);
    if (failure.kind == InjectionKind::Alarm) alarms.push_back(&failure);
  }
  const auto by_step = [](const FailureInjection* a,
                          const FailureInjection* b) {
    return a->step < b->step;
  };
  std::stable_sort(losses.begin(), losses.end(), by_step);
  std::stable_sort(alarms.begin(), alarms.end(), by_step);
  report.missed_failures += losses.size();
  for (const FailureInjection* alarm : alarms) {
    // A consumed loss is cleared to nullptr.
    const auto match = std::find_if(
        losses.begin(), losses.end(), [&](const FailureInjection* loss) {
          return loss && loss->node == alarm->node &&
                 loss->step >= alarm->step &&
                 loss->step <= alarm->step + alarm->window;
        });
    if (match == losses.end()) continue;
    *match = nullptr;
    ++report.true_predictions;
    --report.missed_failures;
  }
}

}  // namespace

// ----------------------------------------------------------------- nodes

NodeSet::NodeSet(std::uint64_t nodes, const Domain& domain,
                 std::size_t keep_last)
    : domain_(domain), keep_last_(keep_last) {
  memory_.reserve(nodes);
  stores_.reserve(nodes);
  for (std::uint64_t node = 0; node < nodes; ++node) {
    memory_.emplace_back(domain_.cells_per_node() * sizeof(double));
    stores_.emplace_back(node, 2, keep_last_);
    blank_restart(node);
  }
  for (ckpt::BuddyStore& store : stores_) directory_.push_back(&store);
}

void NodeSet::read(std::uint64_t node, std::size_t first_cell,
                   std::span<double> out) const {
  memory_[node].read(first_cell * sizeof(double), std::as_writable_bytes(out));
}

double NodeSet::value_at(std::uint64_t node, std::size_t cell) const {
  double value = 0.0;
  read(node, cell, std::span(&value, 1));
  return value;
}

void NodeSet::write(std::uint64_t node, std::span<const double> state) {
  memory_[node].write(0, std::as_bytes(state));
}

void NodeSet::blank_restart(std::uint64_t node) {
  std::vector<double> state(domain_.cells_per_node());
  domain_.initialize(node, state);
  write(node, state);
}

void NodeSet::destroy(std::uint64_t node) {
  write(node, std::vector<double>(domain_.cells_per_node(),
                                  std::numeric_limits<double>::quiet_NaN()));
  stores_[node] = ckpt::BuddyStore(node, 2, keep_last_);
}

void NodeSet::inject_sdc(std::uint64_t node) {
  // The value changes (never to inf/NaN), so the corruption flows through
  // later kernel steps and content hashes.
  std::byte low{};
  memory_[node].read(0, std::span(&low, 1));
  low ^= std::byte{0x5a};
  memory_[node].write(0, std::span<const std::byte>(&low, 1));
}

std::uint64_t NodeSet::cow_copies() const {
  std::uint64_t copies = 0;
  for (const ckpt::PageStore& memory : memory_) copies += memory.cow_copies();
  return copies;
}

// ---------------------------------------------------------------- driver

ProtocolDriver::ProtocolDriver(const ProtocolConfig& config,
                               std::uint64_t nodes,
                               std::unique_ptr<Domain> domain)
    : config_((config.validate(nodes), config)), domain_(std::move(domain)),
      groups_(nodes, config.topology),
      nodes_(nodes, *domain_, config.keep_last), pool_(config.threads),
      scratch_(pool_.thread_count(),
               {std::vector<double>(domain_->cells_per_node()),
                std::vector<double>(domain_->cells_per_node())}),
      committed_hashes_(nodes, 0), engine_(config_, groups_, nodes_) {}

void ProtocolDriver::execute_step() {
  domain_->capture_halos(nodes_);
  util::parallel_for_chunked(
      pool_, nodes_.size(), scratch_.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& [previous, next] = scratch_[chunk];
        for (std::size_t node = begin; node < end; ++node) {
          nodes_.read(node, 0, previous);
          domain_->step(node, previous, next);
          nodes_.write(node, next);
        }
      });
}

std::vector<ckpt::Snapshot> ProtocolDriver::snapshot_all() {
  std::vector<ckpt::Snapshot> images;
  images.reserve(nodes_.size());
  for (std::uint64_t node = 0; node < nodes_.size(); ++node) {
    images.push_back(nodes_.snapshot(node));
  }
  return images;
}

void ProtocolDriver::begin_checkpoint(std::uint64_t step) {
  // Every node snapshots and stages its image on its holders. Snapshots
  // are cheap COW captures; the bytes "sent" over the (virtual)
  // interconnect are the remote stagings: group_size - 1 per image.
  const std::uint64_t n = nodes_.size();
  const auto images = snapshot_all();

  staging_version_ = images.front().version();
  staging_snapshot_step_ = step;
  staged_bytes_ = 0;
  staging_hashes_.assign(n, 0);
  const auto epochs = engine_.current_epochs();
  staging_epochs_.assign(epochs.begin(), epochs.end());
  if (config_.dcp_stack_size > 0) {
    // Refresh the per-node hash arrays for the full base these deltas will
    // chain on. Safe to overwrite here: dcp forbids staging, so this
    // snapshot set commits before anything can roll back past it.
    hash_arrays_.assign(n, {});
  }
  const auto remote = static_cast<std::uint64_t>(groups_.group_size() - 1);
  for (std::uint64_t node = 0; node < n; ++node) {
    const ckpt::Snapshot& image = images[node];
    // Hash before staging, so every filed copy carries the cached digest
    // the restore paths verify against.
    staging_hashes_[node] = image.content_hash();
    if (config_.dcp_stack_size > 0) {
      hash_arrays_[node] = ckpt::block_hashes(image, config_.dcp_block_size);
    }
    for (const std::uint64_t holder : replica_holders(groups_, node)) {
      nodes_.store(holder).stage(image);
    }
    staged_bytes_ += remote * image.size_bytes();
  }
  staging_ = true;
}

void ProtocolDriver::commit_checkpoint(RunReport& report) {
  // Integrity gate before promotion: every node's staged image on its
  // preferred buddy must still match its snapshot-time digest (a cached
  // hash, so the gate costs no hashing). Staging is process-local here, so
  // a mismatch is a broken invariant, not a chaos outcome the run could
  // survive.
  const std::uint64_t n = nodes_.size();
  for (std::uint64_t node = 0; node < n; ++node) {
    const auto staged =
        nodes_.store(groups_.preferred_buddy(node)).staged_for(node);
    if (!staged || !staged->verify(staging_hashes_[node])) {
      throw std::logic_error(
          "commit_checkpoint: staged image failed verification");
    }
  }
  // Atomic promotion of the completed set on every node.
  for (ckpt::BuddyStore* store : nodes_.stores()) {
    store->promote(staging_version_);
  }
  committed_hashes_ = staging_hashes_;
  committed_step_ = staging_snapshot_step_;
  staging_ = false;
  report.bytes_replicated += staged_bytes_;
  ++report.checkpoints;
  ++report.full_commits;
  // A full exchange restarts every dcp lineage: promote() dropped the old
  // chains, and the hash arrays captured at begin_checkpoint() describe the
  // new base the next deltas diff against.
  dcp_layers_ = 0;
  dcp_tip_version_ = staging_version_;
  // A committed exchange re-creates every replica: pending refills are
  // subsumed, the risk window closes, lost nodes rejoin, and the set joins
  // the rollback ladder with its snapshot-time corruption epochs.
  engine_.on_commit(committed_step_, committed_hashes_, staging_epochs_);
}

void ProtocolDriver::commit_delta_checkpoint(RunReport& report,
                                             std::uint64_t step) {
  // Differential commit: every node snapshots, diffs against the cached
  // hash array of the last committed image, and appends the resulting layer
  // on the same holders a full image would go to. Blocking (like
  // staging_steps == 0) and atomic from the run's point of view: the commit
  // markers advance to the new tip.
  const std::uint64_t n = nodes_.size();
  const auto images = snapshot_all();
  const auto remote = static_cast<std::uint64_t>(groups_.group_size() - 1);
  for (std::uint64_t node = 0; node < n; ++node) {
    const ckpt::Snapshot& image = images[node];
    auto hashes = ckpt::block_hashes(image, config_.dcp_block_size);
    const ckpt::BlockDelta layer = ckpt::make_block_delta(
        hash_arrays_[node], hashes, dcp_tip_version_, committed_hashes_[node],
        image, config_.dcp_block_size);
    for (const std::uint64_t holder : replica_holders(groups_, node)) {
      nodes_.store(holder).append_delta(layer);
    }
    report.bytes_replicated += remote * layer.delta_bytes();
    committed_hashes_[node] = image.content_hash();
    hash_arrays_[node] = std::move(hashes);
  }
  committed_step_ = step;
  dcp_tip_version_ = images.front().version();
  ++dcp_layers_;
  ++report.checkpoints;
  ++report.delta_commits;
  // Deliberately *not* engine_.on_commit(): a delta exchange moves only
  // dirty blocks, so it does not re-create every replica -- it neither
  // closes a pending risk window, clears pending refills, nor readmits
  // lost nodes. Only a full exchange does.
}

void ProtocolDriver::proactive_checkpoint(RunReport& report,
                                          std::uint64_t step) {
  // Skip-if-just-committed: nothing new to save when the committed set (or
  // the implicit initial checkpoint at step 0) already captures this state.
  // (committed_step_ is 0 while the starting configuration is the restore
  // point.)
  if (committed_step_ == step) return;
  // The proactive commit captures a strictly newer state than any staged
  // set, superseding it; drop the in-flight exchange and run a blocking
  // snapshot-and-promote, exactly the staging_steps == 0 path.
  staging_ = false;
  for (ckpt::BuddyStore* store : nodes_.stores()) store->discard_staged();
  begin_checkpoint(step);
  commit_checkpoint(report);
  ++report.proactive_ckpts;
}

RunReport ProtocolDriver::run(std::span<const FailureInjection> failures) {
  validate_injections(failures, nodes_.size(), config_.total_steps,
                      config_.topology, config_.verify_every,
                      config_.dcp_stack_size);
  RunReport report;
  std::vector<FailureInjection> pending(failures.begin(), failures.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const FailureInjection& a, const FailureInjection& b) {
                     return a.step < b.step;
                   });

  score_predictions(failures, report);

  std::uint64_t step = 0;
  while (step < config_.total_steps) {
    // Predictor alarms fire first: the proactive checkpoint they trigger
    // commits before this step's loss (if any) lands, which is exactly how
    // a same-step true prediction saves the work since the last commit.
    // Consumed alarms are erased, so each fires once even across replays.
    const auto alarms = std::erase_if(pending, [&](const FailureInjection& f) {
      return f.kind == InjectionKind::Alarm && f.step == step;
    });
    if (alarms > 0) {
      report.alarms_raised += alarms;
      proactive_checkpoint(report, step);
    }
    // Fire the injections scheduled for this step (each at most once).
    // NodeLoss wipes the victim's memory and buddy storage; the rollback
    // then restores every node through its replica ladder -- skipping
    // corrupt images, failing over to later candidates, and
    // blank-restarting (degraded mode) any node whose ladder is exhausted.
    if (engine_.fire_injections(pending, step, report)) {
      // Any in-flight staging set is lost with its victims; abandon it and
      // fall back to the last committed set (retaken on replay).
      staging_ = false;
      engine_.rollback_and_refill(step, committed_hashes_, report);
      report.replayed_steps += step - committed_step_;
      step = committed_step_;
      continue;
    }

    execute_step();
    ++step;
    ++report.steps_executed;
    // Risk-window / refill / degraded-mode bookkeeping: due refills deliver
    // (consuming any armed transfer faults, retrying with backoff), and
    // every step some node runs blank-restarted counts as degraded.
    engine_.tick(committed_hashes_, report);
    // Commit an in-flight set before possibly starting the next one (the
    // two coincide when staging_steps == checkpoint_interval).
    if (staging_ && step == staging_commit_at_) {
      commit_checkpoint(report);
    }
    const bool boundary = step % config_.checkpoint_interval == 0 &&
                          step < config_.total_steps;
    if (config_.verify_every > 0) {
      // Verification runs every `verify_every` checkpoint periods, after
      // the period's commit and before the next set stages -- plus one
      // final audit at the end of the run, so a late silent error cannot
      // escape into the final answer undetected.
      if (boundary) ++periods_since_verify_;
      const bool due =
          (boundary && periods_since_verify_ >= config_.verify_every) ||
          step == config_.total_steps;
      if (due) {
        periods_since_verify_ = 0;
        const auto resume =
            engine_.verify_checkpoints(step, committed_hashes_, report);
        if (resume) {
          staging_ = false;
          committed_step_ = *resume;
          report.replayed_steps += step - *resume;
          step = *resume;
          continue;
        }
      }
    }
    if (boundary && !staging_) {
      // dcp cadence: between full exchanges, commit block deltas -- but
      // only while the chain has room (K - 1 layers) and the platform is
      // whole. A lost node or a pending refill forces a full exchange,
      // because only a full commit re-creates every replica and closes the
      // risk window (deltas skip engine_.on_commit()).
      const bool delta_commit =
          config_.dcp_stack_size > 0 && engine_.has_commit() &&
          dcp_layers_ + 1 < config_.dcp_stack_size && !engine_.any_lost() &&
          !engine_.refill_pending();
      if (delta_commit) {
        commit_delta_checkpoint(report, step);
      } else {
        begin_checkpoint(step);
        staging_commit_at_ = step + config_.staging_steps;
        if (config_.staging_steps == 0) commit_checkpoint(report);
      }
    }
  }

  report.cow_copies = nodes_.cow_copies();
  const auto state = global_state();
  report.final_hash = ckpt::fnv1a(std::as_bytes(std::span(state)));
  return report;
}

std::vector<double> ProtocolDriver::global_state() const {
  const std::size_t cells = domain_->cells_per_node();
  std::vector<double> state(nodes_.size() * cells);
  for (std::uint64_t node = 0; node < nodes_.size(); ++node) {
    nodes_.read(node, 0, std::span(state).subspan(node * cells, cells));
  }
  return state;
}

}  // namespace dckpt::runtime
