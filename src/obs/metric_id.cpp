#include "obs/metric_id.h"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace h3cdn::obs {
namespace {

/// The process-wide intern table. A function-local static, so ids declared
/// at namespace scope in any translation unit can intern during static
/// initialization; never destroyed, so an id stays valid through exit. Names
/// live in a deque: appending never moves them, so the name pointers handed
/// out stay valid without holding the lock.
struct InternTable {
  std::mutex mutex;
  std::deque<std::string> names;
  std::unordered_map<std::string_view, std::uint32_t> index;
};

InternTable& intern_table() {
  static InternTable* const table = new InternTable;
  return *table;
}

}  // namespace

MetricId::MetricId(std::string_view name) {
  InternTable& table = intern_table();
  const std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.index.find(name);
  if (it != table.index.end()) {
    index_ = it->second;
  } else {
    index_ = static_cast<std::uint32_t>(table.names.size());
    table.index.emplace(table.names.emplace_back(name), index_);
  }
  name_ = &table.names[index_];
}

}  // namespace h3cdn::obs
