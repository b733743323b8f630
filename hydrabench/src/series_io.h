// File formats the benchmark reads and writes on its own: the reference
// answers ("truth" files) and single-row reads of a hydra series file,
// done with plain preads so the reference never goes through the storage
// layer it checks.
#ifndef HYDRABENCH_SERIES_IO_H_
#define HYDRABENCH_SERIES_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"

namespace hydrabench {

/// Writes `truth` (one k-list per query) to `path`; false on I/O error.
bool WriteTruth(const std::string& path,
                const std::vector<std::vector<TrueNeighbor>>& truth);
/// Reads a file written by WriteTruth; false on a missing/short file.
bool ReadTruth(const std::string& path,
               std::vector<std::vector<TrueNeighbor>>* truth);

/// Reads individual rows of a hydra series file (24-byte header: magic,
/// count, length; then count x length float32 values).
class RowReader {
 public:
  RowReader() = default;
  ~RowReader();
  RowReader(const RowReader&) = delete;
  RowReader& operator=(const RowReader&) = delete;

  bool Open(const std::string& path);
  size_t length() const { return length_; }
  /// Reads row `id` into `out` (length() values); false on error.
  bool Read(size_t id, std::vector<float>* out) const;

 private:
  int fd_ = -1;
  size_t count_ = 0;
  size_t length_ = 0;
};

}  // namespace hydrabench

#endif  // HYDRABENCH_SERIES_IO_H_
