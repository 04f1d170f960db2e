#include "data/database.h"

namespace ccdb {

Status Database::Create(const std::string& name, Relation relation) {
  if (relations_.count(name)) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  Bind(name, std::make_shared<const Relation>(std::move(relation)));
  return Status::OK();
}

void Database::CreateOrReplace(const std::string& name, Relation relation) {
  Bind(name, std::make_shared<const Relation>(std::move(relation)));
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return it->second.get();
}

Status Database::Drop(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  ++versions_[name];
  return Status::OK();
}

uint64_t Database::Version(const std::string& name) const {
  return relations_.count(name) > 0 ? VersionCounter(name) : 0;
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

std::shared_ptr<const Relation> Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second;
}

void Database::Bind(const std::string& name,
                    std::shared_ptr<const Relation> relation) {
  relations_[name] = std::move(relation);
  ++versions_[name];
}

uint64_t Database::VersionCounter(const std::string& name) const {
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

}  // namespace ccdb
