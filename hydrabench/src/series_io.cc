#include "series_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

namespace hydrabench {

bool WriteTruth(const std::string& path,
                const std::vector<std::vector<TrueNeighbor>>& truth) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const uint64_t header[2] = {truth.size(),
                              truth.empty() ? 0 : truth[0].size()};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1;
  for (const auto& row : truth) {
    if (row.size() != header[1]) ok = false;
    for (const TrueNeighbor& n : row) {
      ok = ok && std::fwrite(&n.id, sizeof(n.id), 1, f) == 1 &&
           std::fwrite(&n.dist_sq, sizeof(n.dist_sq), 1, f) == 1;
    }
  }
  return std::fclose(f) == 0 && ok;
}

bool ReadTruth(const std::string& path,
               std::vector<std::vector<TrueNeighbor>>* truth) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint64_t header[2] = {0, 0};
  bool ok = std::fread(header, sizeof(header), 1, f) == 1 &&
            header[1] > 0 && header[1] < 4096;
  truth->assign(ok ? header[0] : 0, {});
  for (auto& row : *truth) {
    row.resize(header[1]);
    for (TrueNeighbor& n : row) {
      ok = ok && std::fread(&n.id, sizeof(n.id), 1, f) == 1 &&
           std::fread(&n.dist_sq, sizeof(n.dist_sq), 1, f) == 1;
    }
  }
  std::fclose(f);
  return ok;
}

RowReader::~RowReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool RowReader::Open(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return false;
  uint64_t header[3] = {0, 0, 0};
  if (::pread(fd_, header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    return false;
  }
  count_ = header[1];
  length_ = header[2];
  return length_ > 0;
}

bool RowReader::Read(size_t id, std::vector<float>* out) const {
  if (id >= count_) return false;
  out->resize(length_);
  const size_t bytes = length_ * sizeof(float);
  const off_t offset = static_cast<off_t>(3 * sizeof(uint64_t) + id * bytes);
  return ::pread(fd_, out->data(), bytes, offset) ==
         static_cast<ssize_t>(bytes);
}

}  // namespace hydrabench
