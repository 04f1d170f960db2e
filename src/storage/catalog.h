#ifndef CCDB_STORAGE_CATALOG_H_
#define CCDB_STORAGE_CATALOG_H_

/// \file catalog.h
/// Database persistence on the simulated disk.
///
/// A persisted database is a *catalog heap file* whose records are
/// (relation name, serialized schema, first page of the relation's tuple
/// heap, tuple count); each relation's tuples live in their own chained
/// heap file. `SaveDatabase` returns the catalog's first page id — the
/// single root from which `LoadDatabase` reconstructs everything after a
/// "restart" (a fresh process over the same PageManager).
///
/// A save may *reuse* the tuple heaps of an earlier save on the same disk:
/// a relation whose content stamp (`Relation::stamp`) equals the stamp
/// recorded for its name is not re-serialized, and its new catalog record
/// points at the heap already on disk. This is sound only while no page of
/// that earlier save is ever rewritten, which holds because pages are
/// allocated fresh and never reclaimed.

#include <map>
#include <string>

#include "data/database.h"
#include "storage/heap_file.h"

namespace ccdb {

/// Where one saved relation's tuples live, and which content they hold.
struct SavedHeap {
  uint64_t stamp = 0;                  ///< the saved relation's stamp
  PageId first_page = kInvalidPageId;  ///< first page of its tuple heap
};

/// Relation name -> saved heap, for one saved catalog.
using SavedHeaps = std::map<std::string, SavedHeap>;

/// Writes `db` to `pool`'s disk; returns the catalog root page id.
/// Relations whose stamp matches their entry in `reuse` keep that heap;
/// the rest are serialized into new heaps. When `saved` is non-null it
/// receives the heaps of the catalog just written. The defaults reuse
/// nothing.
Result<PageId> SaveDatabase(BufferPool* pool, const Database& db,
                            const SavedHeaps& reuse = {},
                            SavedHeaps* saved = nullptr);

/// Reconstructs a database from a catalog root written by SaveDatabase.
/// Every tuple is re-validated against its schema on the way in.
Result<Database> LoadDatabase(BufferPool* pool, PageId catalog_root);

}  // namespace ccdb

#endif  // CCDB_STORAGE_CATALOG_H_
