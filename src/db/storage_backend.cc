#include "db/storage_backend.h"

#include "db/durable_store.h"

namespace otpdb {

std::unique_ptr<StorageBackend> make_storage_backend(const StorageConfig& config,
                                                     Simulator& sim, SiteId site,
                                                     std::uint64_t dense_objects,
                                                     const std::filesystem::path& root) {
  switch (config.backend) {
    case StorageBackendKind::memory:
      return std::make_unique<MemoryBackend>(dense_objects);
    case StorageBackendKind::durable: {
      // Per-site fault schedule: same knobs, independent seeds, so injected
      // faults land at different sites at different times.
      StorageConfig per_site = config;
      per_site.faults.seed = config.faults.seed + 0x9e3779b97f4a7c15ull * (site + 1);
      return std::make_unique<DurableStore>(sim, per_site,
                                            root / ("site-" + std::to_string(site)),
                                            dense_objects);
    }
  }
  OTPDB_UNREACHABLE();
}

}  // namespace otpdb
