// Content-addressed result cache for campaign scenarios.
//
// Scenarios generated by sweeps frequently repeat the same underlying
// problem (the same gadget reached from two sources, the same extracted
// iBGP instance under two parameter settings). The runner keys each
// scenario by the identity of the request it submits (api::identity: the
// kind, the seed where results are seed-dependent, the canonical payload
// it actually solves — never its display name — and the service options
// that shape the answer), so duplicated work is solved once per campaign
// and reused across campaigns sharing a runner. The cache itself treats
// keys as opaque text.
//
// Persistence: constructed with a directory, the cache reloads every
// previously stored outcome at startup and writes each insertion back as
// one content-addressed file (<fnv1a64(key)>.outcome, a versioned
// line-oriented text record), making repeated campaign sweeps incremental
// across processes. Unreadable, version-mismatched, or colliding files
// are ignored — a disk cache miss only costs a re-solve. Outcomes are
// serialised field-for-field (including wall-clock data, which renderers
// exclude from deterministic JSON anyway), so a warm run's report is
// byte-identical to the cold run that populated the directory.
//
// Thread-safety: find/insert are internally synchronized; the runner's
// workers share one cache instance.
#ifndef FSR_CAMPAIGN_CACHE_H
#define FSR_CAMPAIGN_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "campaign/scenario.h"

namespace fsr::campaign {

/// Serialises `outcome` as the versioned text record the disk cache
/// stores (exposed for tests and external tooling).
std::string serialize_outcome(const ScenarioOutcome& outcome);

/// Parses a record produced by serialize_outcome. Returns nullptr on any
/// malformed or version-mismatched input (never throws on bad bytes).
std::shared_ptr<const ScenarioOutcome> deserialize_outcome(
    const std::string& text);

class ResultCache {
 public:
  /// Empty `directory`: plain in-memory cache. Otherwise disk-backed:
  /// loads every readable entry under `directory` (created if absent) and
  /// persists each insert() back to it.
  ///
  /// `max_bytes` (disk-backed only, 0 = unbounded) caps the directory's
  /// total record bytes: whenever an insertion (or the startup load)
  /// overflows the cap, the least recently ACCESSED record files are
  /// deleted until the total fits — so a long-lived shared cache keeps its
  /// hot set and sheds cold history. Access recency is persisted in each
  /// record file's timestamp: find() hits touch the file (atime is
  /// unreliable under relatime/noatime mounts, so the cache maintains the
  /// write timestamp itself), and the startup order comes from the same
  /// stamp. An UNCAPPED cache skips that per-hit metadata write — find()
  /// stays memory-only, as before the sweep existed. Eviction only
  /// deletes FILES — outcomes already loaded this run stay served from
  /// memory; the next process simply reloads less.
  explicit ResultCache(std::string directory = {},
                       std::uint64_t max_bytes = 0);

  /// Returns the cached outcome for `key`, or nullptr (counts a hit/miss).
  std::shared_ptr<const ScenarioOutcome> find(const std::string& key);

  /// Inserts `outcome` for `key`; first insertion wins. Disk-backed
  /// caches also write the entry's file (best-effort: an unwritable
  /// directory degrades to in-memory behaviour).
  void insert(const std::string& key,
              std::shared_ptr<const ScenarioOutcome> outcome);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  const std::string& directory() const noexcept { return directory_; }
  /// Total bytes of record files currently on disk (disk-backed only).
  std::uint64_t disk_bytes() const;
  /// Record files deleted by the size-cap sweep so far.
  std::uint64_t evicted_files() const;

 private:
  struct DiskRecord {
    std::uint64_t bytes = 0;
    std::int64_t last_access = 0;  // sweep order; see touch()
  };

  void load_directory();
  /// Deletes least-recently-accessed record files until the total fits
  /// max_bytes_. Caller holds mutex_.
  void sweep_locked();
  /// Marks `digest`'s record as just-accessed (bookkeeping + file stamp).
  /// Caller holds mutex_.
  void touch_locked(const std::string& digest);
  /// A strictly increasing access stamp: wall clock when it advances,
  /// last-stamp-plus-one when it does not (so same-tick accesses still
  /// order deterministically within a process). Caller holds mutex_.
  std::int64_t next_stamp_locked();

  mutable std::mutex mutex_;
  std::string directory_;  // empty: in-memory only
  std::uint64_t max_bytes_ = 0;
  std::unordered_map<std::string, std::shared_ptr<const ScenarioOutcome>>
      entries_;
  std::unordered_map<std::string, std::string> digest_of_key_;
  std::unordered_map<std::string, DiskRecord> disk_records_;  // by digest
  std::uint64_t disk_bytes_ = 0;
  std::int64_t access_clock_ = 0;  // monotonic in-process access order
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evicted_files_ = 0;
};

}  // namespace fsr::campaign

#endif  // FSR_CAMPAIGN_CACHE_H
