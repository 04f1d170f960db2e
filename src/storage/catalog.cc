#include "storage/catalog.h"

#include "storage/serde.h"

namespace ccdb {

Result<PageId> SaveDatabase(BufferPool* pool, const Database& db,
                            const SavedHeaps& reuse, SavedHeaps* saved) {
  HeapFile catalog(pool);
  SavedHeaps heaps;
  for (const std::string& name : db.Names()) {
    CCDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(name));
    auto prior = reuse.find(name);
    SavedHeap heap;
    if (prior != reuse.end() && prior->second.stamp == rel->stamp()) {
      heap = prior->second;  // same content: its heap is already on disk
    } else {
      // The relation's tuples in their own heap file.
      HeapFile tuples(pool);
      for (const Tuple& t : rel->tuples()) {
        CCDB_RETURN_IF_ERROR(tuples.Append(SerializeTuple(t)).status());
      }
      heap = SavedHeap{rel->stamp(), tuples.first_page()};
    }
    // One catalog record describing the relation.
    Writer w;
    w.PutString(name);
    std::vector<uint8_t> schema_bytes = SerializeSchema(rel->schema());
    w.PutU32(static_cast<uint32_t>(schema_bytes.size()));
    w.PutBytes(schema_bytes.data(), schema_bytes.size());
    w.PutU64(heap.first_page);
    w.PutU64(rel->size());
    CCDB_RETURN_IF_ERROR(catalog.Append(w.TakeBuffer()).status());
    heaps.emplace(name, heap);
  }
  if (saved != nullptr) *saved = std::move(heaps);
  return catalog.first_page();
}

Result<Database> LoadDatabase(BufferPool* pool, PageId catalog_root) {
  CCDB_ASSIGN_OR_RETURN(HeapFile catalog, HeapFile::Open(pool, catalog_root));
  Database db;
  Status failure = Status::OK();
  Status scanned = catalog.Scan([&](RecordId,
                                    const std::vector<uint8_t>& record) {
    Reader r(record);
    auto parse = [&]() -> Status {
      CCDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
      CCDB_ASSIGN_OR_RETURN(uint32_t schema_len, r.GetU32());
      if (schema_len > record.size()) {
        return Status::IoError("corrupt catalog record for '" + name + "'");
      }
      std::vector<uint8_t> schema_bytes;
      schema_bytes.reserve(schema_len);
      for (uint32_t i = 0; i < schema_len; ++i) {
        CCDB_ASSIGN_OR_RETURN(uint8_t byte, r.GetU8());
        schema_bytes.push_back(byte);
      }
      CCDB_ASSIGN_OR_RETURN(Schema schema,
                            DeserializeSchema(schema_bytes));
      CCDB_ASSIGN_OR_RETURN(uint64_t first_page, r.GetU64());
      CCDB_ASSIGN_OR_RETURN(uint64_t expected_count, r.GetU64());

      CCDB_ASSIGN_OR_RETURN(HeapFile tuples, HeapFile::Open(pool, first_page));
      Relation rel(std::move(schema));
      Status tuple_failure = Status::OK();
      CCDB_RETURN_IF_ERROR(tuples.Scan(
          [&](RecordId, const std::vector<uint8_t>& bytes) {
            auto tuple = DeserializeTuple(bytes);
            if (!tuple.ok()) {
              tuple_failure = tuple.status();
              return false;
            }
            Status inserted = rel.Insert(std::move(tuple).value());
            if (!inserted.ok()) {
              tuple_failure = inserted;
              return false;
            }
            return true;
          }));
      CCDB_RETURN_IF_ERROR(tuple_failure);
      if (rel.size() != expected_count) {
        return Status::IoError(
            "relation '" + name + "': catalog says " +
            std::to_string(expected_count) + " tuples, heap holds " +
            std::to_string(rel.size()));
      }
      return db.Create(name, std::move(rel));
    };
    failure = parse();
    return failure.ok();
  });
  CCDB_RETURN_IF_ERROR(scanned);
  CCDB_RETURN_IF_ERROR(failure);
  return db;
}

}  // namespace ccdb
