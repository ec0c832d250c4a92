#include "storage/relation.h"

#include <algorithm>

namespace viewauth {

const ColumnVector& ChunkImages::ColumnOn(std::span<const Tuple> rows,
                                          int column) {
  // Map nodes are stable, so the returned reference outlives the lock.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = columns_.find(column);
  if (it == columns_.end()) {
    it = columns_.emplace(column, ColumnVector()).first;
    it->second.Gather(rows, column);
    built_.store(true, std::memory_order_release);
  }
  return it->second;
}

const OrderedIndex& ChunkImages::OrderedIndexOn(std::span<const Tuple> rows,
                                                int column) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ordered_.find(column);
  if (it == ordered_.end()) {
    OrderedIndex built;
    built.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      built.emplace_back(rows[i].values()[static_cast<size_t>(column)],
                         static_cast<uint32_t>(i));
    }
    std::sort(built.begin(), built.end(),
              [](const std::pair<Value, uint32_t>& a,
                 const std::pair<Value, uint32_t>& b) {
                if (a.first < b.first) return true;
                if (b.first < a.first) return false;
                return a.second < b.second;
              });
    it = ordered_.emplace(column, std::move(built)).first;
    built_.store(true, std::memory_order_release);
  }
  return it->second;
}

void ChunkImages::Clear() {
  // Builders are readers, and readers exclude writers, so no image can
  // appear between this check and the clear.
  if (!built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  columns_.clear();
  ordered_.clear();
  built_.store(false, std::memory_order_release);
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_), chunks_(other.chunks_), size_(other.size_) {
  // Readers of `other` may be building a column index or catching the
  // identity index up right now.
  std::lock_guard<std::mutex> lock(other.index_mutex_);
  identity_ = other.identity_;
  identity_rows_.store(other.identity_rows_.load(std::memory_order_acquire),
                       std::memory_order_release);
  column_indexes_ = other.column_indexes_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  chunks_ = other.chunks_;
  size_ = other.size_;
  {
    std::lock_guard<std::mutex> lock(other.index_mutex_);
    identity_ = other.identity_;
    identity_rows_.store(other.identity_rows_.load(std::memory_order_acquire),
                         std::memory_order_release);
    column_indexes_ = other.column_indexes_;
  }
  tail_images_.Clear();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      chunks_(std::move(other.chunks_)),
      size_(std::exchange(other.size_, 0)),
      identity_(std::move(other.identity_)),
      identity_rows_(other.identity_rows_.exchange(0)),
      column_indexes_(std::move(other.column_indexes_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  chunks_ = std::move(other.chunks_);
  size_ = std::exchange(other.size_, 0);
  identity_ = std::move(other.identity_);
  identity_rows_.store(other.identity_rows_.exchange(0),
                       std::memory_order_release);
  column_indexes_ = std::move(other.column_indexes_);
  tail_images_.Clear();
  return *this;
}

Status Relation::ValidateTuple(const Tuple& tuple) const {
  if (tuple.arity() != schema_.arity()) {
    return Status::SchemaMismatch(
        "tuple arity " + std::to_string(tuple.arity()) +
        " does not match relation '" + schema_.name() + "' arity " +
        std::to_string(schema_.arity()));
  }
  for (int i = 0; i < tuple.arity(); ++i) {
    const Value& v = tuple.at(i);
    if (v.is_null()) continue;
    const ValueType expected = schema_.attribute(i).type;
    if (v.type() == expected) continue;
    // int64 is acceptable where a double is expected.
    if (expected == ValueType::kDouble && v.is_int64()) continue;
    return Status::SchemaMismatch(
        "attribute '" + schema_.attribute(i).name + "' of relation '" +
        schema_.name() + "' expects " +
        std::string(ValueTypeToString(expected)) + ", got " +
        std::string(ValueTypeToString(v.type())));
  }
  return Status::OK();
}

size_t Relation::IdentityHash(const Tuple& tuple) const {
  if (!KeyedIdentity(tuple)) return tuple.Hash();
  // The key projection's hash, without projecting.
  const std::vector<int>& key = schema_.key();
  return HashCells(key.size(), [&](size_t i) -> const Value& {
    return tuple.values()[static_cast<size_t>(key[i])];
  });
}

bool Relation::SameIdentity(const Tuple& a, const Tuple& b) const {
  if (!KeyedIdentity(a) || !KeyedIdentity(b)) return a == b;
  return std::all_of(schema_.key().begin(), schema_.key().end(), [&](int c) {
    return a.values()[static_cast<size_t>(c)] ==
           b.values()[static_cast<size_t>(c)];
  });
}

size_t Relation::ProbeHash(const Tuple& tuple) const {
  return size_ > kScanRows ? IdentityHash(tuple) : 0;
}

void Relation::CatchUpIdentity() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  const uint32_t covered = identity_rows_.load(std::memory_order_acquire);
  if (covered == size_) return;  // another reader caught up first
  std::vector<size_t> hashes(size_ - covered);
  for (RowId id = covered; id < size_; ++id) {
    hashes[id - covered] = IdentityHash(row(id));
  }
  identity_.AddRange(covered, hashes);
  identity_rows_.store(size_, std::memory_order_release);
}

template <typename Visit>
void Relation::ForEachIdentityCandidate(size_t probe_hash,
                                        Visit visit) const {
  if (size_ > kScanRows) {
    // A reader that sees the index complete also sees its entries: the
    // catch-up's release store follows them, and this load acquires it.
    if (identity_rows_.load(std::memory_order_acquire) != size_) {
      CatchUpIdentity();
    }
    identity_.ForEach(probe_hash, visit);
    return;
  }
  for (RowId id = 0; id < size_; ++id) {
    if (!visit(id)) return;
  }
}

RowId Relation::Find(const Tuple& tuple, size_t probe_hash) const {
  RowId found = size_;
  ForEachIdentityCandidate(probe_hash, [&](RowId id) {
    if (row(id) != tuple) return true;
    found = id;
    return false;
  });
  return found;
}

Status Relation::Insert(Tuple tuple) {
  VIEWAUTH_RETURN_NOT_OK(ValidateTuple(tuple));
  // One identity probe decides all three outcomes: a row with the same
  // key and a different payload is a violation, an identical row is
  // absorbed, and otherwise the tuple is new.
  const size_t hash = ProbeHash(tuple);
  bool duplicate = false;
  bool conflict = false;
  ForEachIdentityCandidate(hash, [&](RowId id) {
    const Tuple& existing = row(id);
    if (existing == tuple) {
      duplicate = true;
    } else if (SameIdentity(existing, tuple)) {
      conflict = true;
    }
    return true;
  });
  if (conflict) {
    return Status::SchemaMismatch("primary-key violation in relation '" +
                                  schema_.name() + "' for key " +
                                  tuple.Project(schema_.key()).ToString());
  }
  if (!duplicate) Append(std::move(tuple), hash);
  return Status::OK();
}

bool Relation::InsertUnchecked(Tuple tuple) {
  const size_t hash = ProbeHash(tuple);
  if (Find(tuple, hash) != size_) return false;
  Append(std::move(tuple), hash);
  return true;
}

void Relation::Append(Tuple tuple, size_t probe_hash) {
  const RowId id = size_;
  AppendDistinct(std::move(tuple));
  // An index that covered every earlier row takes the new one too; past
  // a gap (AppendDistinct, or the first growth beyond kScanRows) the
  // next probe indexes the whole gap at once.
  if (id != 0 && identity_rows_.load(std::memory_order_acquire) == id) {
    identity_.Add(probe_hash, id);
    identity_rows_.store(size_, std::memory_order_release);
  }
}

void Relation::AppendDistinct(Tuple tuple) {
  const RowId id = size_;
  const uint32_t offset = id & (kChunkRows - 1);
  // A new chunk starts with a few slots and doubles as it fills.
  if (offset == 0) chunks_.push_back(std::make_shared<Chunk>(4));
  std::shared_ptr<Chunk>& tail = chunks_.back();
  if (!tail->Claim(offset)) {
    // The chunk is full, or a relation sharing it appended first and
    // took the slot: continue in a private chunk with room to grow. Its
    // rows move over when nothing else holds the old chunk.
    const bool sole_holder = tail.use_count() == 1;
    auto grown = std::make_shared<Chunk>(std::min(kChunkRows, 2 * offset));
    for (uint32_t i = 0; i < offset; ++i) {
      grown->Claim(i);
      if (sole_holder) {
        grown->slot(i) = std::move(tail->slot(i));
      } else {
        grown->slot(i) = tail->row(i);
      }
    }
    grown->Claim(offset);
    tail = std::move(grown);
  }
  for (auto& [column, index] : column_indexes_) {
    index.Add(tuple.values()[static_cast<size_t>(column)].Hash(), id);
  }
  tail->slot(offset) = std::move(tuple);
  ++size_;
  tail_images_.Clear();
}

bool Relation::Erase(const Tuple& tuple) {
  const RowId found = Find(tuple, ProbeHash(tuple));
  if (found == size_) return false;
  // Rebuild from the erased row's chunk onward; earlier chunks and their
  // images stay shared.
  const size_t first_chunk = found >> kChunkShift;
  const RowId first = static_cast<RowId>(first_chunk) << kChunkShift;
  std::vector<Tuple> moved;
  moved.reserve(size_ - first - 1);
  for (RowId id = first; id < size_; ++id) {
    if (id != found) moved.push_back(row(id));
  }
  chunks_.resize(first_chunk);
  size_ = first;
  if (first > kScanRows) {
    identity_.Truncate(first);
    identity_rows_.store(first, std::memory_order_release);
  } else {
    identity_ = RowIndex();
    identity_rows_.store(0, std::memory_order_release);
  }
  for (auto& [column, index] : column_indexes_) index.Truncate(first);
  for (Tuple& t : moved) {
    const size_t hash = ProbeHash(t);
    Append(std::move(t), hash);
  }
  tail_images_.Clear();
  return true;
}

void Relation::Clear() {
  chunks_.clear();
  size_ = 0;
  identity_ = RowIndex();
  identity_rows_.store(0, std::memory_order_release);
  column_indexes_.clear();
  tail_images_.Clear();
}

bool Relation::Contains(const Tuple& tuple) const {
  return Find(tuple, ProbeHash(tuple)) != size_;
}

Relation::ColumnIndex Relation::IndexOn(int column) const {
  // Serialize lazy builds: concurrent read-only sessions may race to
  // index the same relation. Map nodes are stable, so the view stays
  // valid after unlock as long as no mutation intervenes.
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = column_indexes_.find(column);
  if (it == column_indexes_.end()) {
    std::vector<size_t> hashes(size_);
    for (RowId id = 0; id < size_; ++id) {
      hashes[id] = row(id).values()[static_cast<size_t>(column)].Hash();
    }
    it = column_indexes_.emplace(column, RowIndex()).first;
    it->second.AddRange(0, hashes);
  }
  return ColumnIndex(this, &it->second, static_cast<size_t>(column));
}

ChunkImages& Relation::ImagesOf(int c) const {
  return ChunkSize(c) == kChunkRows ? chunks_[static_cast<size_t>(c)]->images()
                                    : tail_images_;
}

const OrderedIndex& Relation::OrderedIndexOn(int chunk, int column) const {
  return ImagesOf(chunk).OrderedIndexOn(this->chunk(chunk), column);
}

const ColumnVector& Relation::ColumnOn(int chunk, int column) const {
  return ImagesOf(chunk).ColumnOn(this->chunk(chunk), column);
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> sorted(begin(), end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool Relation::SameTuples(const Relation& other) const {
  if (size() != other.size()) return false;
  return std::all_of(begin(), end(),
                     [&](const Tuple& t) { return other.Contains(t); });
}

DatabaseSchema& DatabaseInstance::MutableSchema() {
  if (schema_.use_count() > 1) {
    schema_ = std::make_shared<DatabaseSchema>(*schema_);
  }
  return *schema_;
}

Status DatabaseInstance::CreateRelation(RelationSchema schema) {
  VIEWAUTH_RETURN_NOT_OK(MutableSchema().AddRelation(schema));
  // Copy the name out first: argument evaluation order is unspecified, so
  // passing schema.name() and std::move(schema) in one call would race.
  std::string name = schema.name();
  relations_.emplace(std::move(name),
                     std::make_shared<Relation>(std::move(schema)));
  ++ddl_version_;
  return Status::OK();
}

Status DatabaseInstance::DropRelation(std::string_view name) {
  VIEWAUTH_RETURN_NOT_OK(MutableSchema().DropRelation(name));
  relations_.erase(relations_.find(name));
  ++ddl_version_;
  return Status::OK();
}

Result<Relation*> DatabaseInstance::GetRelation(std::string_view name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(name) +
                            "' does not exist");
  }
  // Copy-on-write: a use count above one means a snapshot still reads
  // this relation object; give the writer its own copy, which shares the
  // chunks and index shards. (Refcounts only move under the engine's
  // exclusive mutation lock or when a reader releases its snapshot — a
  // concurrent release can at worst leave the count momentarily high,
  // causing a spurious copy, never a shared mutation.)
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<Relation>(*it->second);
  }
  return it->second.get();
}

Result<const Relation*> DatabaseInstance::GetRelation(
    std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(name) +
                            "' does not exist");
  }
  return it->second.get();
}

Status DatabaseInstance::Insert(std::string_view relation_name, Tuple tuple) {
  VIEWAUTH_ASSIGN_OR_RETURN(Relation * rel, GetRelation(relation_name));
  return rel->Insert(std::move(tuple));
}

}  // namespace viewauth
