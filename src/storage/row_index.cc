#include "storage/row_index.h"

namespace viewauth {

RowIndex::Shard& RowIndex::MutableShard(int s) {
  if (shards_.empty()) shards_.resize(kShards);
  std::shared_ptr<Shard>& shard = shards_[static_cast<size_t>(s)];
  // A use count above one means a copy of this index still reads the
  // shard. Counts only rise by copying an index, which the writer
  // excludes, so a stale read can at worst cause a spurious clone.
  if (shard == nullptr) {
    shard = std::make_shared<Shard>();
  } else if (shard.use_count() > 1) {
    shard = std::make_shared<Shard>(*shard);
  }
  return *shard;
}

void RowIndex::Add(size_t hash, RowId id) {
  const uint64_t mixed = Mix(hash);
  Shard& shard = MutableShard(ShardOf(mixed));
  const Entry entry{static_cast<uint32_t>(mixed), id};
  shard.insert(std::upper_bound(shard.begin(), shard.end(), entry), entry);
}

void RowIndex::Truncate(RowId first) {
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    const Shard* shard = shards_[static_cast<size_t>(s)].get();
    if (shard == nullptr ||
        std::none_of(shard->begin(), shard->end(),
                     [first](const Entry& e) { return e.id >= first; })) {
      continue;
    }
    std::erase_if(MutableShard(s),
                  [first](const Entry& e) { return e.id >= first; });
  }
}

void RowIndex::AddRange(RowId first, const std::vector<size_t>& hashes) {
  if (hashes.empty()) return;
  std::vector<Shard> parts(kShards);
  for (size_t i = 0; i < hashes.size(); ++i) {
    const uint64_t mixed = Mix(hashes[i]);
    parts[static_cast<size_t>(ShardOf(mixed))].push_back(
        Entry{static_cast<uint32_t>(mixed), first + static_cast<RowId>(i)});
  }
  for (int s = 0; s < kShards; ++s) {
    Shard& part = parts[static_cast<size_t>(s)];
    if (part.empty()) continue;
    std::sort(part.begin(), part.end());
    Shard& shard = MutableShard(s);
    if (shard.empty()) {
      shard = std::move(part);
      continue;
    }
    const auto old_end = static_cast<std::ptrdiff_t>(shard.size());
    shard.insert(shard.end(), part.begin(), part.end());
    std::inplace_merge(shard.begin(), shard.begin() + old_end, shard.end());
  }
}

}  // namespace viewauth
