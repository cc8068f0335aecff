#include "ckpt/page_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace dckpt::ckpt {

std::uint64_t fnv1a(std::span<const std::byte> data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (std::byte b : data) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

template <typename Word>
Word load_le(const std::byte* p) {
  Word word = 0;
  std::memcpy(&word, p, sizeof word);  // no alignment assumption
  if constexpr (std::endian::native == std::endian::big) {
    Word swapped = 0;
    for (std::size_t i = 0; i < sizeof word; ++i) {
      swapped = static_cast<Word>((swapped << 8) | ((word >> (8 * i)) & 0xffU));
    }
    word = swapped;
  }
  return word;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

std::uint64_t merge_lane(std::uint64_t hash, std::uint64_t lane) {
  return (hash ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(std::span<const std::byte> data, std::uint64_t seed) {
  const std::byte* p = data.data();
  const std::byte* const end = p + data.size();
  std::uint64_t hash = seed + kPrime5;
  if (data.size() >= 32) {
    std::uint64_t lanes[4] = {seed + kPrime1 + kPrime2, seed + kPrime2, seed,
                              seed - kPrime1};
    for (; end - p >= 32; p += 32) {
      for (int i = 0; i < 4; ++i) {
        lanes[i] = lane_round(lanes[i], load_le<std::uint64_t>(p + 8 * i));
      }
    }
    hash = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
           std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
    for (const std::uint64_t lane : lanes) hash = merge_lane(hash, lane);
  }
  hash += data.size();
  for (; end - p >= 8; p += 8) {
    hash ^= lane_round(0, load_le<std::uint64_t>(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= load_le<std::uint32_t>(p) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= static_cast<std::uint64_t>(*p) * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  return hash ^ (hash >> 32);
}

// ------------------------------------------------------------------ Snapshot

Snapshot::Snapshot(std::vector<Page> pages, std::size_t size_bytes,
                   std::uint64_t version, std::uint64_t owner)
    : pages_(std::move(pages)), size_bytes_(size_bytes), version_(version),
      owner_(owner) {}

const Snapshot::Digest& Snapshot::digest() const {
  if (!digest_) {
    auto digest = std::make_shared<Digest>();
    digest->page_hashes.reserve(pages_.size());
    std::size_t remaining = size_bytes_;
    for (const auto& page : pages_) {
      const std::size_t take = std::min(remaining, page->size());
      digest->page_hashes.push_back(xxh64({page->data(), take}));
      remaining -= take;
    }
    digest->content_hash =
        xxh64(std::as_bytes(std::span(digest->page_hashes)), size_bytes_);
    digest_ = std::move(digest);
  }
  return *digest_;
}

const std::vector<std::uint64_t>& Snapshot::page_hashes() const {
  return digest().page_hashes;
}

std::uint64_t Snapshot::content_hash() const { return digest().content_hash; }

std::vector<std::byte> Snapshot::to_bytes() const {
  std::vector<std::byte> out;
  out.reserve(size_bytes_);
  std::size_t remaining = size_bytes_;
  for (const auto& page : pages_) {
    const std::size_t take = std::min(remaining, page->size());
    out.insert(out.end(), page->begin(), page->begin() + take);
    remaining -= take;
  }
  return out;
}

Snapshot corrupt_copy(const Snapshot& image) {
  if (image.empty()) {
    throw std::invalid_argument("corrupt_copy: empty image");
  }
  std::vector<Snapshot::Page> pages = image.pages();
  auto damaged = std::make_shared<std::vector<std::byte>>(*pages.front());
  if (damaged->empty()) {
    throw std::invalid_argument("corrupt_copy: zero-sized page");
  }
  (*damaged)[0] ^= std::byte{0x5a};
  pages.front() = std::move(damaged);
  return Snapshot(std::move(pages), image.size_bytes(), image.version(),
                  image.owner());
}

Snapshot torn_copy(const Snapshot& image) {
  if (image.empty()) {
    throw std::invalid_argument("torn_copy: empty image");
  }
  std::vector<Snapshot::Page> pages = image.pages();
  // Prefix-only delivery: pages past the halfway point never arrived and
  // read back as zeros. Keeping the page count intact keeps the image
  // structurally restorable -- detection must come from the content hash.
  for (std::size_t i = std::max<std::size_t>(pages.size() / 2, 1);
       i < pages.size(); ++i) {
    pages[i] =
        std::make_shared<std::vector<std::byte>>(pages[i]->size(),
                                                 std::byte{0});
  }
  // Mangle the first byte too (a torn stream header), so the tear is
  // detectable even when the lost tail happened to be all zeros already.
  auto head = std::make_shared<std::vector<std::byte>>(*pages.front());
  if (head->empty()) {
    throw std::invalid_argument("torn_copy: zero-sized page");
  }
  if (pages.size() == 1) {  // single page: the tear hits its second half
    std::fill(head->begin() + static_cast<std::ptrdiff_t>(head->size() / 2),
              head->end(), std::byte{0});
  }
  (*head)[0] ^= std::byte{0xa5};
  pages.front() = std::move(head);
  return Snapshot(std::move(pages), image.size_bytes(), image.version(),
                  image.owner());
}

// ----------------------------------------------------------------- PageStore

PageStore::PageStore(std::size_t size_bytes, std::size_t page_size)
    : size_bytes_(size_bytes), page_size_(page_size) {
  if (size_bytes == 0) throw std::invalid_argument("PageStore: zero size");
  if (page_size == 0) throw std::invalid_argument("PageStore: zero page size");
  const std::size_t count = (size_bytes + page_size - 1) / page_size;
  pages_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pages_.push_back(
        std::make_shared<std::vector<std::byte>>(page_size, std::byte{0}));
  }
}

void PageStore::read(std::size_t offset, std::span<std::byte> out) const {
  // Subtraction-safe: `offset + out.size()` can wrap for huge offsets,
  // passing the naive guard and running an out-of-bounds memcpy.
  if (offset > size_bytes_ || out.size() > size_bytes_ - offset) {
    throw std::out_of_range("PageStore::read past end");
  }
  std::size_t cursor = 0;
  while (cursor < out.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t page = pos / page_size_;
    const std::size_t in_page = pos % page_size_;
    const std::size_t take =
        std::min(out.size() - cursor, page_size_ - in_page);
    std::memcpy(out.data() + cursor, pages_[page]->data() + in_page, take);
    cursor += take;
  }
}

std::vector<std::byte>& PageStore::writable_page(std::size_t index) {
  MutablePage& page = pages_[index];
  if (page.use_count() > 1) {
    // A snapshot still references this page: clone before mutating.
    page = std::make_shared<std::vector<std::byte>>(*page);
    ++cow_copies_;
  }
  return *page;
}

void PageStore::write(std::size_t offset, std::span<const std::byte> data) {
  // Subtraction-safe for the same wrap hazard as read().
  if (offset > size_bytes_ || data.size() > size_bytes_ - offset) {
    throw std::out_of_range("PageStore::write past end");
  }
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t page = pos / page_size_;
    const std::size_t in_page = pos % page_size_;
    const std::size_t take =
        std::min(data.size() - cursor, page_size_ - in_page);
    std::memcpy(writable_page(page).data() + in_page, data.data() + cursor,
                take);
    cursor += take;
  }
}

Snapshot PageStore::snapshot(std::uint64_t owner) {
  std::vector<Snapshot::Page> shared;
  shared.reserve(pages_.size());
  for (const auto& page : pages_) shared.push_back(page);
  return Snapshot(std::move(shared), size_bytes_, ++version_, owner);
}

void PageStore::restore(const Snapshot& snapshot_image) {
  if (snapshot_image.size_bytes() != size_bytes_ ||
      snapshot_image.page_count() != pages_.size()) {
    throw std::invalid_argument("PageStore::restore: layout mismatch");
  }
  // Re-share the snapshot's pages: restore is O(#pages), not O(bytes).
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    pages_[i] = std::const_pointer_cast<std::vector<std::byte>>(
        snapshot_image.pages()[i]);
  }
  // A snapshot taken after restoring a higher-versioned image must still
  // order after it, or make_delta rejects a legitimate post-failover delta
  // with "base must precede current".
  version_ = std::max(version_, snapshot_image.version());
}

}  // namespace dckpt::ckpt
