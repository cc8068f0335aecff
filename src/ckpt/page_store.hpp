// Page-granular application memory with copy-on-write snapshots.
//
// The paper's triple algorithm leans on fork(): a checkpoint is a COW image
// of the process, and pages are physically copied only when the application
// writes them before the upload finishes (Sec. IV). PageStore reproduces
// that mechanism in-process: memory is a vector of shared, immutable pages;
// snapshot() is O(#pages) pointer copies; writing a page that a live
// snapshot still references clones just that page.
//
// The copied-page count is exposed so benches can measure the COW pressure
// that the paper's phi parameter abstracts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace dckpt::ckpt {

/// Default page size: 4 KiB, like the OS pages fork() shares.
inline constexpr std::size_t kDefaultPageSize = 4096;

/// Immutable checkpoint image: shared pages + integrity metadata.
class Snapshot {
 public:
  using Page = std::shared_ptr<const std::vector<std::byte>>;

  Snapshot() = default;
  Snapshot(std::vector<Page> pages, std::size_t size_bytes,
           std::uint64_t version, std::uint64_t owner);

  std::size_t size_bytes() const noexcept { return size_bytes_; }
  std::size_t page_count() const noexcept { return pages_.size(); }
  std::uint64_t version() const noexcept { return version_; }
  std::uint64_t owner() const noexcept { return owner_; }
  bool empty() const noexcept { return pages_.empty(); }

  /// One xxh64 per page over its meaningful bytes (the tail page may be
  /// allocated larger than the image's last bytes). Computed in one pass on
  /// the first call and cached; copies made after that share the cache.
  const std::vector<std::uint64_t>& page_hashes() const;

  /// The image hash: xxh64 over page_hashes(), seeded with size_bytes(), so
  /// it costs no second pass over the bytes. Cached like page_hashes(). It
  /// depends on the page layout as well as the bytes, which is all the
  /// restore paths need: they compare images of one layout.
  std::uint64_t content_hash() const;

  /// Integrity check at a restore point: does the content still hash to
  /// what the producer recorded at snapshot time? A torn (prefix-only)
  /// image fails this too (see torn_copy).
  bool verify(std::uint64_t expected_hash) const {
    return content_hash() == expected_hash;
  }

  /// Copies the image back into a flat buffer (restore path).
  std::vector<std::byte> to_bytes() const;

  const std::vector<Page>& pages() const noexcept { return pages_; }

 private:
  std::vector<Page> pages_;
  std::size_t size_bytes_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t owner_ = 0;

  struct Digest {
    std::vector<std::uint64_t> page_hashes;
    std::uint64_t content_hash = 0;
  };
  const Digest& digest() const;
  /// Shared, not copied: a staged or committed copy of a hashed image
  /// reuses its digest instead of holding an array of its own.
  mutable std::shared_ptr<const Digest> digest_;
};

class PageStore {
 public:
  explicit PageStore(std::size_t size_bytes,
                     std::size_t page_size = kDefaultPageSize);

  std::size_t size_bytes() const noexcept { return size_bytes_; }
  std::size_t page_size() const noexcept { return page_size_; }
  std::size_t page_count() const noexcept { return pages_.size(); }

  /// Reads `out.size()` bytes starting at `offset`.
  void read(std::size_t offset, std::span<std::byte> out) const;

  /// Writes `data` at `offset`, cloning any page still shared with a
  /// snapshot (copy-on-write).
  void write(std::size_t offset, std::span<const std::byte> data);

  /// Captures the current content as an immutable snapshot (cheap: shares
  /// all pages). `owner` tags the image with the producing node.
  Snapshot snapshot(std::uint64_t owner) ;

  /// Replaces the whole content from a snapshot (rollback/restore).
  void restore(const Snapshot& snapshot_image);

  /// Pages physically duplicated by COW since construction.
  std::uint64_t cow_copies() const noexcept { return cow_copies_; }

  /// Monotone version stamp incremented per snapshot.
  std::uint64_t version() const noexcept { return version_; }

 private:
  using MutablePage = std::shared_ptr<std::vector<std::byte>>;

  /// Ensures pages_[index] is uniquely owned before mutation.
  std::vector<std::byte>& writable_page(std::size_t index);

  std::size_t size_bytes_;
  std::size_t page_size_;
  std::vector<MutablePage> pages_;
  std::uint64_t cow_copies_ = 0;
  std::uint64_t version_ = 0;
};

/// FNV-1a 64-bit over a byte range: byte-serial, kept for the reported
/// state identity (RunReport::final_hash) and the dcp layers' self hash.
std::uint64_t fnv1a(std::span<const std::byte> data,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// XXH64 over a byte range: four 8-byte lanes per 32-byte stripe, an
/// avalanche finish, several GB/s. Words are read little-endian through
/// memcpy, so any alignment is fine and the value is the same everywhere.
/// The page, block and image hashes all use it.
std::uint64_t xxh64(std::span<const std::byte> data, std::uint64_t seed = 0);

/// Fault-injection helpers (chaos harness): both return a *fresh* Snapshot
/// with its own pages and no digest, so verify() recomputes over the
/// damaged content instead of trusting the original's cached value.
///
/// corrupt_copy flips one byte of the first page -- a silent bit-flip in a
/// stored replica. torn_copy models a transfer that delivered only a
/// prefix: the first half of the pages survive, the rest read as zeros
/// (the layout stays restorable; the content does not verify).
Snapshot corrupt_copy(const Snapshot& image);
Snapshot torn_copy(const Snapshot& image);

}  // namespace dckpt::ckpt
