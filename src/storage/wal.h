#ifndef SECXML_STORAGE_WAL_H_
#define SECXML_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/paged_file.h"

namespace secxml {

/// Redo-only write-ahead log over a PagedFile (DESIGN.md §11).
///
/// The log is a byte stream of self-validating records laid over pages 1..N
/// of its own paged file; page 0 holds a dual-slot header (two CRC-guarded
/// copies with a sequence number, written alternately) so a torn header
/// write during truncation can never lose both copies. Records are framed as
///
///   [magic u32][type u32][lsn u64][len u32][payload][crc32 u32]
///
/// with the CRC covering type|lsn|len|payload. Appends are strictly
/// append-only: bytes of committed records are never rewritten, so a torn
/// write of a tail page (half new / half old image) can only damage the
/// record being appended — the committed prefix of that page is bit-for-bit
/// identical in both images. Open() scans forward from the header's start
/// offset and stops at the first invalid frame, which cleanly drops a torn
/// or unsynced tail.
///
/// A failed append (write or sync error) is best-effort *invalidated* by
/// zeroing the record's magic word, making "the commit did not happen"
/// durable too; if the invalidation write itself also fails, the record's
/// fate is decided at recovery by whether its bytes reached the device —
/// either outcome is consistent because callers only publish state after a
/// successful append (see RecoveryStats in SecureStore).
///
/// Not internally synchronized: the secure store serializes all log access
/// under its writer mutex, and recovery is single-threaded by nature.
class WriteAheadLog {
 public:
  struct Record {
    uint32_t type = 0;
    uint64_t lsn = 0;
    std::string payload;
  };

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t syncs = 0;
    uint64_t records_recovered = 0;  ///< valid records found by Open()
    uint64_t torn_tail = 0;          ///< 1 if Open() dropped an invalid tail
    uint64_t truncations = 0;
    uint64_t append_failures = 0;
  };

  /// Opens (or initializes, when `file` is empty) a log on `file`, scanning
  /// any existing records into memory. Fails with Corruption only when both
  /// header slots are invalid — a torn *data* tail is expected after a crash
  /// and is silently dropped.
  static Result<std::unique_ptr<WriteAheadLog>> Open(PagedFile* file);

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record and syncs it to durable storage; returns its LSN.
  /// On any error the record is not part of the log (and has been
  /// best-effort invalidated on the device).
  Result<uint64_t> Append(uint32_t type, std::string_view payload);

  /// Invokes `fn` over every record with lsn > `after_lsn`, in LSN order,
  /// stopping at the first error.
  Status Replay(uint64_t after_lsn,
                const std::function<Status(const Record&)>& fn) const;

  /// Logically discards every record: persists a new header whose start
  /// offset points past the current tail. Old record bytes stay on the
  /// device but are unreachable. Called after a checkpoint makes them
  /// redundant.
  Status Truncate();

  /// LSN the next Append will assign.
  uint64_t next_lsn() const { return next_lsn_; }

  /// Records currently in the log (surviving Truncate() resets to 0).
  size_t num_records() const { return records_.size(); }

  const Stats& stats() const { return stats_; }

 private:
  explicit WriteAheadLog(PagedFile* file) : file_(file) {}

  /// Reads `len` bytes of the data region starting at byte `offset`.
  Status ReadBytes(uint64_t offset, size_t len, uint8_t* out) const;
  /// Writes `len` bytes at `offset`, allocating tail pages as needed.
  Status WriteBytes(uint64_t offset, const uint8_t* data, size_t len);
  /// Persists the header (start offset + next LSN) into the inactive slot.
  Status WriteHeader();
  /// Forward-scans records from start_offset_; fills records_ / tail_.
  void ScanExisting();

  PagedFile* file_;
  uint64_t start_offset_ = 0;  ///< data-region byte offset of first record
  uint64_t tail_offset_ = 0;   ///< data-region byte offset one past last record
  uint64_t next_lsn_ = 1;
  uint32_t header_seq_ = 0;    ///< sequence of the active header slot
  std::vector<Record> records_;
  Stats stats_;
};

}  // namespace secxml

#endif  // SECXML_STORAGE_WAL_H_
