#include "storage/backend.h"

#include <utility>

#include "io/series_file.h"

namespace hydra::storage {

util::Result<StorageBackend> ParseStorageBackend(const std::string& token) {
  if (token == "ram") return StorageBackend::kRam;
  if (token == "mmap") return StorageBackend::kMmap;
  return util::Status::Error("unknown storage backend '" + token +
                             "' (expected ram or mmap)");
}

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kRam:
      return "ram";
    case StorageBackend::kMmap:
      return "mmap";
  }
  return "?";
}

util::Result<StorageHandle> StorageHandle::Open(const std::string& path,
                                                const std::string& name,
                                                const StorageOptions& options) {
  StorageHandle handle;
  handle.backend_ = options.backend;
  if (options.backend == StorageBackend::kRam) {
    auto data = io::ReadSeriesFile(path, name);
    if (!data.ok()) return data.status();
    handle.ram_ = std::move(data).value();
    return handle;
  }
  auto file = FileDataset::Open(path, name, options.pool);
  if (!file.ok()) return file.status();
  handle.file_ = std::move(file).value();
  return handle;
}

std::string StorageHandle::Describe() const {
  if (file_ == nullptr) return "storage: ram (whole dataset resident)";
  const BufferPool& pool = file_->pool();
  const size_t pool_bytes = pool.frame_count() * pool.frame_bytes();
  std::string line =
      "storage: mmap pool=" + std::to_string(pool_bytes / (1 << 20)) +
      "MiB (" + std::to_string(pool.frame_count()) + " frames x " +
      std::to_string(pool.series_per_page()) + " series/page, " +
      std::to_string(pool.page_count()) + " pages on disk)";
  const std::string extent = pool.LeafExtentStatus();
  if (!extent.starts_with("not used")) {
    line += "; leaf extent " + extent;
  }
  return line;
}

}  // namespace hydra::storage
