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

RowIndex RowIndex::Build(const std::vector<size_t>& hashes) {
  RowIndex index;
  if (hashes.empty()) return index;
  std::vector<Shard> parts(kShards);
  for (size_t id = 0; id < hashes.size(); ++id) {
    const uint64_t mixed = Mix(hashes[id]);
    parts[static_cast<size_t>(ShardOf(mixed))].push_back(
        Entry{static_cast<uint32_t>(mixed), static_cast<RowId>(id)});
  }
  index.shards_.resize(kShards);
  for (size_t s = 0; s < parts.size(); ++s) {
    if (parts[s].empty()) continue;
    std::sort(parts[s].begin(), parts[s].end());
    index.shards_[s] = std::make_shared<Shard>(std::move(parts[s]));
  }
  return index;
}

}  // namespace viewauth
