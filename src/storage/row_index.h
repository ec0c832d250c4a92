// RowIndex: the one hash index type of a Relation (DESIGN.md §16).
//
// A hash multimap from a caller-computed hash of some columns of a row
// to the row's id. It stores no values: the caller verifies each
// candidate against the row itself, so an entry is 8 bytes and the index
// never holds a second copy of a tuple. A relation uses it twice over:
// as its identity index (key projection, or the whole tuple when the
// scheme declares no key) and for every IndexOn(column).
//
// The map is split into kShards shards chosen by the top bits of the
// mixed hash. Each shard is a vector of (hash fragment, row id) entries
// sorted by fragment then id, behind a shared_ptr: copying an index
// copies kShards pointers, and an Add or Truncate clones only the shards
// it touches, and only while a copy still shares them. Shards are
// allocated on first use, so an index over a handful of rows holds a
// handful of shards.

#ifndef VIEWAUTH_STORAGE_ROW_INDEX_H_
#define VIEWAUTH_STORAGE_ROW_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace viewauth {

// A row's position in its relation: chunk << kChunkShift | offset
// (storage/relation.h). Ids are dense and stable under appends.
using RowId = uint32_t;

class RowIndex {
 public:
  static constexpr int kShardBits = 6;
  static constexpr int kShards = 1 << kShardBits;

  // Adds `id` under `hash`.
  void Add(size_t hash, RowId id);

  // Removes every entry whose id is `first` or larger.
  void Truncate(RowId first);

  // Calls `visit(id)` for each id added under `hash`, in increasing id
  // order, until `visit` returns false. Ids added under another hash
  // whose mixed form shares the fragment are visited too, so callers
  // check the row.
  template <typename Visit>
  void ForEach(size_t hash, Visit visit) const {
    if (shards_.empty()) return;
    const uint64_t mixed = Mix(hash);
    const Shard* shard = shards_[ShardOf(mixed)].get();
    if (shard == nullptr) return;
    const uint32_t fragment = static_cast<uint32_t>(mixed);
    auto it = std::lower_bound(shard->begin(), shard->end(),
                               Entry{fragment, 0});
    for (; it != shard->end() && it->fragment == fragment; ++it) {
      if (!visit(it->id)) return;
    }
  }

  // Adds ids [first, first + hashes.size()), id first + i under
  // hashes[i], at the cost of one sort and one merge per touched shard.
  // Every id added so far must be below `first`.
  void AddRange(RowId first, const std::vector<size_t>& hashes);

 private:
  struct Entry {
    uint32_t fragment;
    RowId id;
    bool operator<(const Entry& other) const {
      return fragment != other.fragment ? fragment < other.fragment
                                        : id < other.id;
    }
  };
  using Shard = std::vector<Entry>;

  // Hash values from Value::Hash are not uniform in every bit (int64
  // values beyond 2^53 hash to themselves), so they are finalized
  // (splitmix64) before choosing a shard and a fragment.
  static uint64_t Mix(size_t hash) {
    uint64_t x = static_cast<uint64_t>(hash);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }
  static int ShardOf(uint64_t mixed) {
    return static_cast<int>(mixed >> (64 - kShardBits));
  }

  // The shard for writing: allocated, or cloned while a copy shares it.
  Shard& MutableShard(int s);

  std::vector<std::shared_ptr<Shard>> shards_;  // empty until first Add
};

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_ROW_INDEX_H_
