#ifndef CCDB_DATA_DATABASE_H_
#define CCDB_DATA_DATABASE_H_

/// \file database.h
/// The catalog: a named collection of relations.
///
/// "A Constraint Database is a finite set of constraint relations"
/// (Definition 2 of the paper). `Database` is that set plus the naming that
/// the step-based query language (§3.3's `R0 = select ... from Land`) needs.
///
/// A catalog holds each relation as a `std::shared_ptr<const Relation>` and
/// never changes one in place: a write rebinds the name. So copying a
/// catalog copies a map of pointers and shares every relation object. The
/// service builds on that: it publishes an immutable `Database` as each
/// catalog snapshot (`MvccCatalog` in `data/snapshot.h`), a commit writes
/// into a copy of the current snapshot, and a transaction into a copy of
/// the snapshot it began on.
///
/// The accessors are virtual so other layers can interpose read views, such
/// as the service's session overlay (a session's step results resolve
/// before the shared catalog). `Database` itself is single-threaded; a
/// published snapshot is shared read-only.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/relation.h"
#include "util/status.h"

namespace ccdb {

/// A catalog of named heterogeneous relations.
///
/// Every registration under a name bumps that name's version counter;
/// versions never repeat for a name, so (name, version) identifies one
/// immutable relation state.
class Database {
 public:
  Database() = default;
  virtual ~Database() = default;
  /// A copy shares every relation object and keeps every version counter.
  Database(const Database&) = default;
  Database& operator=(const Database&) = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Registers a relation; fails if the name is taken.
  virtual Status Create(const std::string& name, Relation relation);

  /// Replaces or registers (used by the query language for step results).
  virtual void CreateOrReplace(const std::string& name, Relation relation);

  /// Looks up a relation.
  virtual Result<const Relation*> Get(const std::string& name) const;

  /// Removes a relation; fails if absent.
  virtual Status Drop(const std::string& name);

  virtual bool Has(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// Version of the relation currently registered under `name`: 0 when the
  /// name is unbound, otherwise a counter bumped by every Create /
  /// CreateOrReplace / Drop of that name.
  virtual uint64_t Version(const std::string& name) const;

  /// Names in sorted order.
  virtual std::vector<std::string> Names() const;

  virtual size_t size() const { return relations_.size(); }

  /// The relation bound to `name`, or null when unbound (a miss builds no
  /// error, unlike `Get`).
  std::shared_ptr<const Relation> Find(const std::string& name) const;

  /// Binds `relation` to `name`, replacing any binding, and bumps the
  /// name's counter: `CreateOrReplace` with a shared relation.
  void Bind(const std::string& name, std::shared_ptr<const Relation> relation);

  /// The raw per-name counter, unbound names included: a counter survives
  /// `Drop`, so a name's versions never repeat across a drop and recreate.
  uint64_t VersionCounter(const std::string& name) const;

 private:
  std::map<std::string, std::shared_ptr<const Relation>> relations_;
  /// Keys are a superset of `relations_`' keys (dropped names keep theirs).
  std::map<std::string, uint64_t> versions_;
};

}  // namespace ccdb

#endif  // CCDB_DATA_DATABASE_H_
