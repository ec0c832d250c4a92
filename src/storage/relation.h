// In-memory relations with set semantics (the relational model of the
// paper: a relation is a *set* of tuples over the scheme's domains), and
// the database instance holding one relation per relation scheme.
//
// Storage layout (DESIGN.md §16): a relation is a directory of chunks of
// kChunkRows rows each, held by shared_ptr, plus one identity index. A
// copy shares every chunk and every index shard; a write touches the
// tail chunk and one shard per index, never the whole relation.

#ifndef VIEWAUTH_STORAGE_RELATION_H_
#define VIEWAUTH_STORAGE_RELATION_H_

#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "schema/schema.h"
#include "storage/column_batch.h"
#include "storage/row_index.h"
#include "storage/tuple.h"

namespace viewauth {

// Rows per chunk; a row's id is chunk << kChunkShift | offset. A chunk
// is one vectorized batch.
inline constexpr int kChunkShift = 10;
inline constexpr uint32_t kChunkRows = uint32_t{1} << kChunkShift;
static_assert(kChunkRows == kColumnBatchRows);

// An ordered index over one column of one chunk: (value, offset in the
// chunk) pairs sorted by value (Value's total order), then offset.
using OrderedIndex = std::vector<std::pair<Value, uint32_t>>;

// Read structures derived from one fixed run of rows, built lazily under
// their own mutex so concurrent readers may share them. References stay
// valid until Clear.
class ChunkImages {
 public:
  const ColumnVector& ColumnOn(std::span<const Tuple> rows, int column);
  const OrderedIndex& OrderedIndexOn(std::span<const Tuple> rows, int column);
  // Drops every image. Costs one atomic load when none was built, so a
  // writer may call it on every append.
  void Clear();

 private:
  std::mutex mutex_;
  // Set under `mutex_` when an image is built, reset by Clear.
  std::atomic<bool> built_{false};
  std::map<int, ColumnVector> columns_;
  std::map<int, OrderedIndex> ordered_;
};

// Up to kChunkRows rows in fixed slots. Relations sharing a chunk each
// see their own prefix of it, so a chunk is append-only: whoever claims
// the next free slot fills it, and every other sharer, which cannot see
// that slot, clones the chunk before appending (Relation::Append). A
// full chunk is sealed — immutable — and carries its derived images.
class Chunk {
 public:
  explicit Chunk(uint32_t capacity)
      : rows_(std::make_unique<Tuple[]>(capacity)), capacity_(capacity) {}

  const Tuple& row(uint32_t offset) const { return rows_[offset]; }
  std::span<const Tuple> rows(uint32_t count) const {
    return {rows_.get(), count};
  }

  // Claims slot `offset` for writing. Fails when the slot is taken (a
  // sharer appended first) or past capacity.
  bool Claim(uint32_t offset) {
    uint32_t expected = offset;
    return offset < capacity_ &&
           claimed_.compare_exchange_strong(expected, offset + 1);
  }
  Tuple& slot(uint32_t offset) { return rows_[offset]; }

  // Images of a sealed chunk (all kChunkRows rows), shared by every
  // relation holding it.
  ChunkImages& images() const { return images_; }

 private:
  std::unique_ptr<Tuple[]> rows_;
  const uint32_t capacity_;
  std::atomic<uint32_t> claimed_{0};
  mutable ChunkImages images_;
};

class Relation {
 public:
  Relation() = default;
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  // Copies share the chunks and index shards with the original (each
  // side clones what it later writes) and rebuild only the tail chunk's
  // images. Moves transfer everything but the tail images.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const RelationSchema& schema() const { return schema_; }

  // Inserts a tuple; duplicates are silently absorbed (set semantics).
  // Fails on arity or type mismatch, or on a primary-key violation (same
  // key, different non-key values) when the schema declares a key.
  Status Insert(Tuple tuple);
  // Inserts without schema validation (for operator outputs whose tuples
  // are correct by construction). Still deduplicates. Returns true if the
  // tuple was new.
  bool InsertUnchecked(Tuple tuple);
  // Appends a tuple the caller knows is new (equal to no row present),
  // without validation and without probing or extending the identity
  // index: the next probe indexes the rows appended this way, so the
  // relation stays a set for every later reader and writer. For operator
  // outputs that are distinct by construction.
  void AppendDistinct(Tuple tuple);

  // Removes a tuple if present; returns true if it was removed. Rows
  // after it move up one id: the chunks from the erased row's onward
  // are rebuilt, so an erase is O(rows after it).
  bool Erase(const Tuple& tuple);
  void Clear();

  bool Contains(const Tuple& tuple) const;
  int size() const { return static_cast<int>(size_); }
  bool empty() const { return size_ == 0; }

  // The row with id `id` (< size()).
  const Tuple& row(RowId id) const {
    return chunks_[id >> kChunkShift]->row(id & (kChunkRows - 1));
  }

  // Chunk iteration: chunk c holds rows [c << kChunkShift, ...), all
  // kChunkRows of them except in the last chunk.
  int num_chunks() const { return static_cast<int>(chunks_.size()); }
  std::span<const Tuple> chunk(int c) const {
    return chunks_[static_cast<size_t>(c)]->rows(ChunkSize(c));
  }
  // True when chunk `c` of both relations is one shared object.
  bool SharesChunkWith(const Relation& other, int c) const {
    return chunks_[static_cast<size_t>(c)] ==
           other.chunks_[static_cast<size_t>(c)];
  }

  // Insertion-ordered iteration over the rows.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    Iterator() = default;
    Iterator(const Relation* rel, RowId id) : rel_(rel), id_(id) {}
    const Tuple& operator*() const { return rel_->row(id_); }
    const Tuple* operator->() const { return &rel_->row(id_); }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++id_;
      return before;
    }
    bool operator==(const Iterator& other) const { return id_ == other.id_; }

   private:
    const Relation* rel_ = nullptr;
    RowId id_ = 0;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_); }

  // Rows sorted lexicographically (deterministic display/comparison).
  std::vector<Tuple> SortedRows() const;

  // A hash index over one column, built lazily on first use and from
  // then on extended by every insert (one shard cloned when a copy
  // shares it), so writes never invalidate it. Lookups use strict Value
  // equality, so callers must coerce probe constants to the column's
  // type (the engine's literal coercion already guarantees this for
  // stored data).
  //
  // Building is mutex-guarded, so concurrent read-only sessions may
  // share one relation; mutations must still be externally excluded
  // from readers of the same Relation object (snapshots give each writer
  // its own copy). The view is valid until the next mutation.
  class ColumnIndex {
   public:
    // Calls `visit(id)` for each row whose cell equals `value`, in
    // increasing id order, until `visit` returns false.
    template <typename Visit>
    void ForEach(const Value& value, Visit visit) const {
      index_->ForEach(value.Hash(), [&](RowId id) {
        return !(rel_->row(id).values()[column_] == value) || visit(id);
      });
    }
    size_t count(const Value& value) const {
      size_t n = 0;
      ForEach(value, [&n](RowId) {
        ++n;
        return true;
      });
      return n;
    }

   private:
    friend class Relation;
    ColumnIndex(const Relation* rel, const RowIndex* index, size_t column)
        : rel_(rel), index_(index), column_(column) {}

    const Relation* rel_;
    const RowIndex* index_;
    size_t column_;
  };
  ColumnIndex IndexOn(int column) const;

  // Per-chunk read structures, built lazily under the same rules as
  // IndexOn. A sealed chunk's images live in the chunk and are shared by
  // every relation holding it; the last chunk's live in the relation and
  // are rebuilt after it changes, so a write costs the next read at most
  // one chunk of rebuilding.
  //
  // OrderedIndexOn: the chunk's rows ordered by one column, for
  // binary-searched range scans. ColumnOn: one column of the chunk
  // gathered into a ColumnVector (a flat typed array when the column is
  // uniform and null-free, boxed pointers otherwise); the vectorized
  // plan's full scans run predicate kernels directly over it. Cell
  // pointers alias the chunk's rows.
  const OrderedIndex& OrderedIndexOn(int chunk, int column) const;
  const ColumnVector& ColumnOn(int chunk, int column) const;

  // True if both relations hold the same set of tuples (schema names are
  // not compared; arity must match).
  bool SameTuples(const Relation& other) const;

 private:
  // Validates tuple types against the schema; NULLs are always accepted.
  Status ValidateTuple(const Tuple& tuple) const;

  uint32_t ChunkSize(int c) const {
    return c + 1 < num_chunks()
               ? kChunkRows
               : size_ - (static_cast<uint32_t>(c) << kChunkShift);
  }
  ChunkImages& ImagesOf(int c) const;

  // The identity index hashes the key projection for keyed schemes and
  // the whole tuple otherwise (and for a tuple whose arity does not fit
  // the scheme, which only InsertUnchecked can store).
  bool KeyedIdentity(const Tuple& tuple) const {
    return schema_.has_key() && tuple.arity() == schema_.arity();
  }
  size_t IdentityHash(const Tuple& tuple) const;
  bool SameIdentity(const Tuple& a, const Tuple& b) const;
  // Relations of at most kScanRows rows find a tuple by scanning every
  // row, which beats hashing it; the identity index exists only above
  // that size. The probe hash is the identity hash when the index is in
  // use and 0 otherwise.
  static constexpr uint32_t kScanRows = 32;
  size_t ProbeHash(const Tuple& tuple) const;
  // Indexes the rows appended since the identity index last caught up
  // (AppendDistinct, or crossing kScanRows); called by a probe that saw
  // the index short of size(). Const so that readers may probe:
  // concurrent catch-ups serialize on `index_mutex_`.
  void CatchUpIdentity() const;
  // Calls `visit(id)` for every row that may share the identity of the
  // tuple hashing to `probe_hash`, until `visit` returns false. Catches
  // the identity index up first.
  template <typename Visit>
  void ForEachIdentityCandidate(size_t probe_hash, Visit visit) const;
  // The id of the row equal to `tuple`, or size() when there is none.
  RowId Find(const Tuple& tuple, size_t probe_hash) const;

  // Appends a tuple known to be new and maintains every index;
  // `probe_hash` is ProbeHash(tuple) taken just before, after catch-up.
  void Append(Tuple tuple, size_t probe_hash);

  RelationSchema schema_;
  std::vector<std::shared_ptr<Chunk>> chunks_;
  uint32_t size_ = 0;
  // The identity index covers rows [0, identity_rows_). It is 0 while the
  // relation is small enough to scan (and until the first probe past
  // that size), and otherwise above kScanRows. Writers extend both in
  // step; a probe first indexes whatever lies beyond (CatchUpIdentity).
  mutable RowIndex identity_;
  mutable std::atomic<uint32_t> identity_rows_{0};
  // Lazily built column indexes (which writers extend) and the last
  // chunk's images; `index_mutex_` serializes builds and identity
  // catch-ups from concurrent readers.
  mutable std::mutex index_mutex_;
  mutable std::map<int, RowIndex> column_indexes_;
  mutable ChunkImages tail_images_;
};

// A database instance: one relation per relation scheme of the database
// scheme, addressable by name.
//
// Copies are shallow and copy-on-write: a copy shares the schema object
// and every relation with the original, and the first mutation through
// either instance copies just the touched relation — its chunk
// directory and index shard pointers, not its rows — (or the schema, for
// DDL) before writing. This is what makes forking an engine snapshot
// O(#relations) pointer copies instead of a deep copy of all data —
// readers pinning the old instance keep an immutable view.
class DatabaseInstance {
 public:
  DatabaseInstance() : schema_(std::make_shared<DatabaseSchema>()) {}
  DatabaseInstance(const DatabaseInstance&) = default;
  DatabaseInstance& operator=(const DatabaseInstance&) = default;
  DatabaseInstance(DatabaseInstance&&) = default;
  DatabaseInstance& operator=(DatabaseInstance&&) = default;

  // Creates a relation for `schema`, registering it in the database
  // scheme as well.
  Status CreateRelation(RelationSchema schema);
  Status DropRelation(std::string_view name);

  // The non-const lookup is the write path: if the relation is shared
  // with another instance (a pinned snapshot), it is copied first so the
  // mutation stays invisible to the sharer.
  Result<Relation*> GetRelation(std::string_view name);
  Result<const Relation*> GetRelation(std::string_view name) const;
  bool HasRelation(std::string_view name) const {
    return schema_->HasRelation(name);
  }

  Status Insert(std::string_view relation_name, Tuple tuple);

  const DatabaseSchema& schema() const { return *schema_; }
  // The schema as a shareable handle — the ViewCatalog binds to this so
  // catalog snapshots keep their schema alive independently of the
  // instance that created it.
  std::shared_ptr<const DatabaseSchema> schema_ptr() const { return schema_; }

  // Bumped on every relation create/drop; the authorization cache folds
  // it into its generation so DDL invalidates cached masks (data
  // mutations deliberately do not bump it — masks are data-independent).
  long long ddl_version() const { return ddl_version_; }

 private:
  // Clones the schema first when it is shared with a snapshot.
  DatabaseSchema& MutableSchema();

  std::shared_ptr<DatabaseSchema> schema_;
  std::map<std::string, std::shared_ptr<Relation>, std::less<>> relations_;
  long long ddl_version_ = 0;
};

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_RELATION_H_
