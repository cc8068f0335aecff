// Extension: content-hash differential checkpoints (dcp). Measures, on the
// real ckpt substrate, the bytes a buddy exchange actually moves when only
// content-dirty blocks ship, across controlled per-commit dirty fractions,
// and compares the measured volume ratio against the analytic multiplier
//   m = (1/K)(1 + h) + (1 - 1/K)(d_b + h)
// of model/dcp.hpp. At small d the reduction approaches d + h per commit
// (plus the 1/K full-image amortization), which is the dcpScalable result
// the model encodes. It then measures h itself: the time to hash one full
// image over the time to copy it, the input to the model's --hash-overhead.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>

#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;
  using namespace dckpt::bench;
  const auto context = parse_bench_args(
      argc, argv, "Differential checkpoints: transfer bytes full vs dcp");
  if (!context) return 0;

  constexpr std::size_t kStateBytes = 1 << 20;  // 1 MiB
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kPages = kStateBytes / kPage;
  constexpr std::uint64_t kStack = 8;   // K: commits per full exchange
  constexpr int kCycles = 6;            // measured full-exchange cycles

  print_header(
      "Differential checkpoints -- exchange volume vs dirty fraction",
      "1 MiB state, 4 KiB blocks, K = 8 commits per full exchange. Each\n"
      "commit rewrites a d-fraction of pages with fresh content; deltas\n"
      "carry only blocks whose content hash changed. 'dcp/full' is measured\n"
      "bytes over K-commit cycles relative to shipping the full image every\n"
      "commit; 'model m' is the analytic multiplier at h = 0. At small d\n"
      "the per-delta volume approaches d (+ hash overhead h when h > 0).");

  auto csv = context->csv("ext_dcp",
                          {"dirty_fraction", "block", "full_mib_per_commit",
                           "dcp_mib_per_commit", "measured_ratio", "model_m"});
  auto jsonl = context->jsonl("ext_dcp",
                              {"dirty_fraction", "block",
                               "full_mib_per_commit", "dcp_mib_per_commit",
                               "measured_ratio", "model_m"});
  util::TextTable table({"d", "block", "full/commit", "dcp/commit",
                         "dcp/full", "model m"});

  for (const double d : {0.05, 0.2, 1.0}) {
    for (const std::size_t block : {kPage, 4 * kPage}) {
      ckpt::PageStore store(kStateBytes, kPage);
      util::Xoshiro256ss rng(0xdc9 + static_cast<std::uint64_t>(d * 100) +
                             block);
      std::vector<std::byte> payload(kPage);
      std::vector<std::size_t> pages(kPages);
      std::iota(pages.begin(), pages.end(), std::size_t{0});
      const auto dirty_pages =
          static_cast<std::size_t>(d * static_cast<double>(kPages) + 0.5);

      double dcp_bytes = 0.0;
      double full_bytes = 0.0;
      std::uint64_t commits = 0;
      ckpt::Snapshot base = store.snapshot(0);
      std::vector<std::uint64_t> base_hashes =
          ckpt::block_hashes(base, block);
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        for (std::uint64_t commit = 0; commit < kStack; ++commit) {
          // Touch `dirty_pages` distinct pages with fresh content (partial
          // Fisher-Yates draw), so the content-dirty fraction is exactly d.
          for (std::size_t i = 0; i < dirty_pages; ++i) {
            const std::size_t j =
                i + static_cast<std::size_t>(rng.next_below(pages.size() - i));
            std::swap(pages[i], pages[j]);
            for (auto& byte : payload) {
              byte = static_cast<std::byte>(rng());
            }
            store.write(pages[i] * kPage, payload);
          }
          const ckpt::Snapshot current = store.snapshot(0);
          full_bytes += static_cast<double>(current.size_bytes());
          if (commit == 0) {  // the cycle's full exchange
            dcp_bytes += static_cast<double>(current.size_bytes());
          } else {
            const auto delta = ckpt::make_block_delta(
                base_hashes, base.version(), base.content_hash(), current,
                block);
            dcp_bytes += static_cast<double>(delta.delta_bytes());
          }
          base = current;
          base_hashes = ckpt::block_hashes(base, block);
          ++commits;
        }
      }

      const double per_commit = static_cast<double>(commits);
      const double measured = dcp_bytes / full_bytes;
      model::DcpSpec spec;
      spec.dirty_fraction = d;
      spec.block_size = block;
      spec.page_size = kPage;
      spec.stack_size = kStack;
      const double m = model::checkpoint_volume_multiplier(spec);
      table.add_row({util::format_fixed(d, 2),
                     util::format_bytes(static_cast<double>(block)),
                     util::format_bytes(full_bytes / per_commit),
                     util::format_bytes(dcp_bytes / per_commit),
                     util::format_fixed(measured, 4),
                     util::format_fixed(m, 4)});
      const double full_mib = full_bytes / per_commit / (1 << 20);
      const double dcp_mib = dcp_bytes / per_commit / (1 << 20);
      if (csv) {
        csv->write_row_numeric({d, static_cast<double>(block), full_mib,
                                dcp_mib, measured, m});
      }
      if (jsonl) {
        jsonl->row({d, static_cast<double>(block), full_mib, dcp_mib,
                    measured, m});
      }
    }
  }
  std::printf("%s", table.render().c_str());
  if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
  if (jsonl) std::printf("[jsonl] wrote %s\n", jsonl->path().c_str());

  // Measured h on the same 1 MiB image: hashing a fresh snapshot (its page
  // hashes and the image hash derived from them) over copying every page
  // into one flat, already-faulted buffer -- the bytes a full exchange
  // moves. Each sample times a batch of calls; both figures are medians.
  constexpr int kSamples = 31;
  constexpr int kCallsPerSample = 16;
  const auto median_seconds = [](const auto& call) {
    std::vector<double> samples;
    for (int i = 0; i < kSamples; ++i) {
      const auto start = std::chrono::steady_clock::now();
      for (int k = 0; k < kCallsPerSample; ++k) call();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      samples.push_back(elapsed.count() / kCallsPerSample);
    }
    std::nth_element(samples.begin(), samples.begin() + kSamples / 2,
                     samples.end());
    return samples[kSamples / 2];
  };
  ckpt::PageStore image_store(kStateBytes, kPage);
  util::Xoshiro256ss rng(0x4a5);
  std::vector<std::byte> content(kStateBytes);
  for (auto& byte : content) byte = static_cast<std::byte>(rng());
  image_store.write(0, content);
  std::vector<std::byte> flat(kStateBytes, std::byte{1});
  volatile std::uint64_t sink = 0;  // keeps the timed calls observable
  const double hash_s = median_seconds(
      [&] { sink = sink + image_store.snapshot(0).content_hash(); });
  const ckpt::Snapshot image = image_store.snapshot(0);
  const double copy_s = median_seconds([&] {
    std::size_t offset = 0;
    for (const auto& page : image.pages()) {
      std::memcpy(flat.data() + offset, page->data(), page->size());
      offset += page->size();
    }
    sink = sink + static_cast<std::uint64_t>(flat[offset - 1]);
  });
  const double gb = static_cast<double>(kStateBytes) * 1e-9;
  const double measured_h = hash_s / copy_s;
  std::printf(
      "\nhash overhead h (1 MiB image, 4 KiB pages, medians of %d samples):\n"
      "  hash %.2f GB/s, copy %.2f GB/s, measured h = %.3f "
      "(the model rows above use --hash-overhead 0)\n",
      kSamples, gb / hash_s, gb / copy_s, measured_h);
  auto hash_jsonl = context->jsonl(
      "ext_dcp_hash", {"hash_gbps", "copy_gbps", "measured_h"});
  if (hash_jsonl) {
    hash_jsonl->row({gb / hash_s, gb / copy_s, measured_h});
    std::printf("[jsonl] wrote %s\n", hash_jsonl->path().c_str());
  }
  return 0;
}
