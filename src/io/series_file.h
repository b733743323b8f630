// Binary persistence for datasets (the raw data files of the framework):
// a 24-byte header (magic, series count, series length) followed by
// series-major float32 values. Three access styles share the format and
// its validation:
//   - WriteSeriesFile / ReadSeriesFile: whole-dataset, fully in RAM.
//   - SeriesFileWriter: streaming writes for corpora larger than memory
//     (`hydra gen` emits chunks through it; the header's count is patched
//     on Finish, so an interrupted write is rejected by every reader).
//   - SeriesFile: an open, validated handle that reads *nothing* up front
//     — the out-of-core backend mmaps through it and preads pages on
//     demand (storage::BufferPool). SeriesFile::WriteUnlinked makes the
//     storage layer's leaf extents: a reordered copy in an unlinked file.
#ifndef HYDRA_IO_SERIES_FILE_H_
#define HYDRA_IO_SERIES_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "core/dataset.h"
#include "util/status.h"

namespace hydra::io {

/// Writes `data` as a binary series file: a 24-byte header (magic, series
/// count, series length) followed by series-major float32 values.
util::Status WriteSeriesFile(const std::string& path,
                             const core::Dataset& data);

/// Reads a binary series file written by WriteSeriesFile. Strict about
/// size: the file must hold exactly the header plus count * length
/// values — a truncated file (partial final series) or trailing garbage
/// is rejected with an error, never silently accepted.
util::Result<core::Dataset> ReadSeriesFile(const std::string& path,
                                           const std::string& name = "file");

/// An open read-only handle on a series file: Open validates the header
/// with exactly the bulk loader's rigor (magic, overflow-safe volume,
/// exact file size) but loads no values; ReadSeries/ReadAt pread them
/// positionally on demand. A file truncated *after* Open — the SIGBUS
/// trap of a bare mmap — surfaces as a typed error Status from the pread
/// path, never a signal. Movable, not copyable; the destructor closes
/// the descriptor.
class SeriesFile {
 public:
  /// Bytes before the first value: 3 x uint64 (magic, count, length).
  /// 24 = 6 x sizeof(float), so mapped values stay 4-byte aligned.
  static constexpr size_t kHeaderBytes = 3 * sizeof(uint64_t);

  SeriesFile() = default;
  ~SeriesFile();
  SeriesFile(SeriesFile&& other) noexcept;
  SeriesFile& operator=(SeriesFile&& other) noexcept;
  SeriesFile(const SeriesFile&) = delete;
  SeriesFile& operator=(const SeriesFile&) = delete;

  static util::Result<SeriesFile> Open(const std::string& path);

  /// Writes `data`'s series `ids`, in that order, as a series file that
  /// has no name: an O_TMPFILE in `dir` where the file system supports
  /// it, else a mkstemp file unlinked at once. Series go out with
  /// pwritev(2) straight from `data`'s buffer, at most 1 MiB per call. The
  /// returned handle reads the copy (series j is data[ids[j]]); its
  /// space is freed when the handle closes. Errors (say `dir` is gone or
  /// full) come back as a Status.
  static util::Result<SeriesFile> WriteUnlinked(
      const std::string& dir, const core::Dataset& data,
      std::span<const core::SeriesId> ids);

  /// Header metadata (validated at Open).
  size_t count() const { return count_; }
  size_t length() const { return length_; }
  size_t series_bytes() const { return length_ * sizeof(core::Value); }
  const std::string& path() const { return path_; }
  /// The open descriptor (the storage layer mmaps through it); -1 on a
  /// default-constructed handle.
  int fd() const { return fd_; }

  /// preads series [first, first + n) into `out` (n * length() values).
  /// The range must lie inside the header's count (CHECK-aborts otherwise
  /// — callers index within the validated metadata); a short or failed
  /// pread (file truncated or replaced after Open) returns a typed error.
  util::Status ReadSeries(size_t first, size_t n, core::Value* out) const;

  /// preads the single series `i` into `out` (length() values).
  util::Status ReadAt(size_t i, core::Value* out) const;

 private:
  int fd_ = -1;
  size_t count_ = 0;
  size_t length_ = 0;
  std::string path_;
};

/// Streams a series file to disk without materializing the dataset:
/// Create writes a provisional header (count 0), Append adds series,
/// Finish patches the true count in place and flushes. Every write error
/// — including a short write on a full disk — is a typed error Status.
/// A writer destroyed without a successful Finish leaves a file that
/// every reader rejects (its header promises 0 series against a larger
/// file). Movable, not copyable.
class SeriesFileWriter {
 public:
  SeriesFileWriter() = default;
  ~SeriesFileWriter();
  SeriesFileWriter(SeriesFileWriter&& other) noexcept;
  SeriesFileWriter& operator=(SeriesFileWriter&& other) noexcept;
  SeriesFileWriter(const SeriesFileWriter&) = delete;
  SeriesFileWriter& operator=(const SeriesFileWriter&) = delete;

  static util::Result<SeriesFileWriter> Create(const std::string& path,
                                               size_t length);

  /// Appends one `length`-point series (size CHECK-checked).
  util::Status Append(core::SeriesView series);
  /// Appends `series_count` contiguous series from `values`.
  util::Status AppendBlock(const core::Value* values, size_t series_count);
  /// Patches the header with the final count, flushes, and closes.
  /// Required for the file to be readable; further Appends CHECK-abort.
  util::Status Finish();

  size_t count() const { return count_; }
  size_t length() const { return length_; }

 private:
  std::FILE* file_ = nullptr;
  size_t count_ = 0;
  size_t length_ = 0;
  std::string path_;
  bool finished_ = false;
};

}  // namespace hydra::io

#endif  // HYDRA_IO_SERIES_FILE_H_
