#include "core/lock_table_replica.h"

#include <algorithm>

namespace otpdb {

AccessSetExtractor rmw_access_extractor(const PartitionCatalog& catalog) {
  return [&catalog](ClassId klass, const TxnArgs& args) {
    std::vector<ObjectId> objects;
    objects.reserve(args.ints.size() > 0 ? args.ints.size() - 1 : 0);
    for (std::size_t i = 1; i < args.ints.size(); ++i) {
      const ObjectId obj = catalog.object(klass, static_cast<std::uint64_t>(args.ints[i]));
      if (std::find(objects.begin(), objects.end(), obj) == objects.end()) {
        objects.push_back(obj);
      }
    }
    return objects;
  };
}

}  // namespace otpdb
